"""Record the reference values of every workload at the default seed.

    python3 perfbench/record.py

Runs one batch of each workload and writes perfbench/reference.json: per
report its exit code, its JSON digest and its mathematical content (see
checks.content).  Problems the seed-independent checks find are printed as
warnings; they are recorded anyway, because the gate finds them again on
every run.  Later commits are checked against the file.
"""

import json
from run import HERE, Runner, checks, load_imapk, workloads


def main():
    imapk = load_imapk()
    reference = {}
    for name in workloads.WORKLOADS:
        runner = Runner(imapk, name, workloads.DEFAULT_SEED, None)
        recorded = {}
        for case in runner.cases:
            spec = imapk.specfile.parse_spec(case.text)
            report, code, text = runner.report(case, spec)
            for problem in runner.gate(case, spec, report, code, text):
                print("warning: %s %s: %s" % (name, case.key, problem))
            recorded[case.key] = {
                "exit": code, "digest": checks.digest(text), "content": checks.content(report),
            }
        reference[name] = recorded
        print("recorded %s: %d reports" % (name, len(recorded)))
    # one line per report, so a re-recording diffs report by report
    blocks = []
    for name in sorted(reference):
        lines = ",\n".join("    %s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
                           for key, value in sorted(reference[name].items()))
        blocks.append("  %s: {\n%s\n  }" % (json.dumps(name), lines))
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        handle.write("{\n%s\n}\n" % ",\n".join(blocks))


if __name__ == "__main__":
    main()
