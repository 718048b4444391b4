"""The five named workloads (names are fixed; later issues cite them)."""

from .cluster_mixed import ClusterMixed
from .ddl_churn import DdlChurn
from .http_serving import HttpServing
from .resolve_hot import ResolveHot
from .snapshot_reads import SnapshotReads

WORKLOADS = {cls.name: cls for cls in (
    HttpServing, ResolveHot, SnapshotReads, DdlChurn, ClusterMixed)}
