import gc
import sys

from .cli import main

status = main()
# the process exits next: spare its finalization collections a heap they would only traverse
gc.freeze()
sys.exit(status)
