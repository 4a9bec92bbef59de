"""``python -m fraclab``: the ``fraclab`` command line, without installing."""
from .cli import main

raise SystemExit(main())
