"""Record reference.json: every pool entry's outputs on the current code.

    python3 perfbench/record.py

Run once on the commit whose answers are the reference; the benchmark
then checks each job's exit code, cost, tau* and front against these
values within the acceptance tolerances.  Recording refuses a pool entry
whose outcome is not the one its workload intends (a feasible job that
does not exit 0, a P2 variant whose tau* is not interior).
"""

import json
import os
import shutil

import run


def record():
    _, _, energyshed, _, workloads = run._import_package()
    refs = {}
    work = os.path.join(run.WORK, f"record-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    for name in workloads.WORKLOADS:
        os.makedirs(os.path.join(work, name))
    runner = run.Runner(energyshed.cli, workloads, work, refs)
    try:
        for name, pool in workloads.WORKLOADS.items():
            _, jobs = pool(run.ROOT, os.path.join(work, name))
            for job in jobs:
                out = os.path.join(work, "out")
                code, wall, err = runner.call(job.argv, out)
                if code != job.expect_exit:
                    raise SystemExit(f"{job.key}: exit {code}, expected "
                                     f"{job.expect_exit}\n{err}")
                obs = workloads.observe(job, out, code)
                if (job.key.startswith("p2-design/variant")
                        and not 0.05 < obs["tau_star"] < 0.95):
                    raise SystemExit(f"{job.key}: tau* {obs['tau_star']} not interior")
                refs[job.key] = obs
                problem = workloads.check(job, out, code, obs)
                if problem:
                    raise SystemExit(f"{job.key}: {problem}")
                print(f"{job.key}: {obs} ({wall:.2f}s)", flush=True)
                shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
