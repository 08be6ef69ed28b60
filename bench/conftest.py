import pathlib
import sys

# the program under test, where bench/run.py's children find it too
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
