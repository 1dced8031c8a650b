"""Build of the program under test and the host stamp every record carries."""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "e2ebench"


class SetupError(Exception):
    """The benchmark cannot run here (no sources, failed build, ...)."""


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds `svsim` and `e2e_probe` from the sources in this
    checkout; a no-op rebuild when they are current. Returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SetupError("no svsim sources next to e2ebench/ (expected "
                         "CMakeLists.txt and src/ at %s)" % ROOT)
    out = build_root() / "e2ebench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH / "probe"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "svsim_cli", "e2e_probe"])
    with open(log, "w") as f:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
            if done.returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise SetupError("build failed: %s" % " ".join(cmd[:2]))
    return out / "svsim" / "tools" / "svsim", out / "e2e_probe"


def probe_json(probe, *args):
    """Runs one probe subcommand and returns its JSON document."""
    r = subprocess.run([str(probe), *map(str, args)], capture_output=True,
                       text=True, timeout=170)
    if r.returncode != 0:
        raise SetupError("e2e_probe %s failed: %s"
                         % (args[0], r.stderr.strip()))
    return json.loads(r.stdout)


def llc_bytes():
    """Last-level (L3) cache size as the host reports it."""
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            if (idx / "level").read_text().strip() != "3":
                continue
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        m = re.fullmatch(r"(\d+)([KMG]?)", size)
        if m:
            return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20,
                                      "G": 1 << 30}[m.group(2)]
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
        m = re.search(r"L3 cache:\s*([\d.]+)\s*([KMG])i?B", text)
        if m:
            return int(float(m.group(1)) * {"K": 1 << 10, "M": 1 << 20,
                                            "G": 1 << 30}[m.group(2)])
    except OSError:
        pass
    return 0


def commit():
    """The git commit, or a hash of the program sources when the checkout is
    not a git repository."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def stamp(probe):
    """Host facts for the record, with host.copy_gbps measured now."""
    llc = llc_bytes()
    h = probe_json(probe, "host", "--llc", llc)
    return {
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "simd_backend": h["simd_backend"],
        "simd_vector_bits": h["simd_vector_bits"],
        "global_pool_threads": h["pool_threads"],
        "host.copy_gbps": h["copy_gbps"],
        "copy_array_bytes": h["copy_array_bytes"],
    }
