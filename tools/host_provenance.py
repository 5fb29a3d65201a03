"""Host provenance stamp for the BENCH_*.json runners.

Every runner records the logical CPUs available to it (what `nproc`
prints) and the CPU model (the "model name" line of /proc/cpuinfo) under
a top-level "host" key, so a committed number says which machine it came
from. Import it from a runner in tools/ (the script's directory is on
sys.path):

    from host_provenance import host_provenance
"""
import os


def cpu_model() -> str:
    """The first "model name" in /proc/cpuinfo, or "unknown"."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    """Logical CPUs this process may run on, as `nproc` reports."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def host_provenance() -> dict:
    return {"nproc": nproc(), "cpu_model": cpu_model()}
