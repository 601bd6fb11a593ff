import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from worker import import_hrnet  # noqa: E402

import_hrnet(os.path.join(os.path.dirname(BENCH), "src"))
