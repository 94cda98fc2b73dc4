"""``python -m artifact.cli_interface <command> ...`` runs one CLI job."""

import sys

from . import main

sys.exit(main())
