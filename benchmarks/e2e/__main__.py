import sys

from .cli import fixed_hash_seed, main

fixed_hash_seed()
sys.exit(main())
