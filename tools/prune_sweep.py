#!/usr/bin/env python3
"""Pruning coverage sweep: the issues a campaign finds with pruning on versus off.

    python3 tools/prune_sweep.py <snowboard_cli> [budgets]

For spec seeds 1-8 and each budget (comma-separated, default 24,40,300), runs
`campaign --seed S --workers 4 --budget B` twice: with pruning on (the CLI default) and
with `--no-prune`. Per budget it prints

  - issues: of the distinct issue ids the unpruned campaign found, how many the pruned
    one found too / how many it found, summed over the seeds;
  - saved: the range, over the seeds, of the share of trials pruning saved;
  - lost: each issue the unpruned campaign found and the pruned one did not, as
    issue@seed, then (with a +) each issue only the pruned campaign found.

Issue ids depend on the site ids the CLI was built with, and those hash the checkout
path, so compare sweeps only between builds with the same ids (a build configured with
`-DCMAKE_CXX_FLAGS=-fmacro-prefix-map=<checkout>/=` has repository-relative ids).
Exits 1 if a campaign fails.
"""

import re
import subprocess
import sys

SEEDS = range(1, 9)
DEFAULT_BUDGETS = "24,40,300"


def campaign(cli, seed, budget, prune):
    """Runs one campaign; returns (trials run, set of issue ids found)."""
    command = [cli, "campaign", "--seed", str(seed), "--workers", "4",
               "--budget", str(budget)]
    if not prune:
        command.append("--no-prune")
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    trials = re.search(r"^tests executed: \d+ \((\d+) trials\)", proc.stdout, re.M)
    if proc.returncode != 0 or trials is None:
        sys.exit(f"prune_sweep: `{' '.join(command)}` failed (exit {proc.returncode})")
    issues = {int(i) for i in re.findall(r"^  #(\d+) ", proc.stdout, re.M)}
    return int(trials.group(1)), issues


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    cli = sys.argv[1]
    budgets = [int(b) for b in (sys.argv[2] if len(sys.argv) == 3
                                else DEFAULT_BUDGETS).split(",")]
    print(f"{'budget':>6}  {'issues':>9}  {'saved':>9}  lost")
    for budget in budgets:
        found_on = found_off = 0
        saved = []
        lost = []
        gained = []
        for seed in SEEDS:
            trials_on, issues_on = campaign(cli, seed, budget, prune=True)
            trials_off, issues_off = campaign(cli, seed, budget, prune=False)
            found_on += len(issues_on & issues_off)
            found_off += len(issues_off)
            saved.append(1 - trials_on / trials_off)
            lost += [f"#{issue}@{seed}" for issue in sorted(issues_off - issues_on)]
            gained += [f"+#{issue}@{seed}" for issue in sorted(issues_on - issues_off)]
        share = f"{min(saved) * 100:.0f}-{max(saved) * 100:.0f}%"
        print(f"{budget:>6}  {f'{found_on}/{found_off}':>9}  {share:>9}  "
              f"{' '.join(lost + gained) or '-'}")


if __name__ == "__main__":
    main()
