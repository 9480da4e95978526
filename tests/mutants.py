"""The kill table: recorded mutation checks, one entry per mutation.

Each entry is a one-place change to the package's source, found by its
exact old text, which must occur once in its file, and the tests that must
fail once the old text is replaced by the new. ``tests/test_mutants.py``
keeps the table in step with the source and the suite. To replay an entry,
apply it to a copy of the tree and run its tests there; every one must
fail.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids that must fail
    why: str


MUTANTS = (
    Mutant("src/rotoxor/analysis.py",
           "i + (i >= master[position])", "i + (i > master[position])",
           ("tests/test_reports.py::test_default_report_digest[avalanche-key]",
            "tests/test_reports.py::test_report_digest_across_chunk_seams[avalanche-key]"),
           "the key avalanche's replacement digit skips the master's own digit"),
    Mutant("src/rotoxor/analysis.py",
           "blocks[done:done + chunk]", "blocks[done + 1:done + chunk]",
           ("tests/test_acceptance.py::test_timing_report",
            "tests/test_analysis.py::test_bench_report_shape",
            "tests/test_analysis.py::test_bench_times_the_batch_path",
            "tests/test_cli.py::test_bench_output"),
           "bench times every block of every class"),
    Mutant("src/rotoxor/analysis.py",
           "n <<= -2 * q", "n <<= -2 * q - 2",
           ("tests/test_reports.py::test_default_report_digest[avalanche-plaintext]",
            "tests/test_reports.py::test_default_report_digest[avalanche-key]",
            "tests/test_reports.py::test_report_digest_across_chunk_seams[avalanche-plaintext]"),
           "the exact root scales the numerator to 109 bits"),
    Mutant("src/rotoxor/cli.py",
           "(os.path.islink(path) or not os.path.isfile(path))",
           "(not os.path.isfile(path))",
           ("tests/test_cli.py::test_out_symlink_is_written_through",),
           "--out through a symlink writes the link's target, not over the link"),
    Mutant("src/rotoxor/cli.py",
           "                os.unlink(tmp)\n", "                pass\n",
           ("tests/test_cli.py::test_failed_rename_keeps_out_and_removes_the_temporary_file",),
           "a failed write leaves no temporary file"),
    Mutant("src/rotoxor/cli.py",
           '_warn("generated key is weak (every block is sent unchanged)")',
           'print("warning: generated key is weak (every block is sent unchanged)")',
           ("tests/test_cli.py::test_keygen_warns_of_a_weak_key_and_still_writes_it",),
           "keygen's weak-key warning goes to stderr"),
    Mutant("src/rotoxor/analysis.py",
           "f\"result={'PASS' if ok else 'FAIL'}\"], ok",
           "f\"result={'PASS' if ok else 'FAIL'}\"], True",
           ("tests/test_cli.py::test_analyze_linearity_failure_exits_5",
            "tests/test_cli.py::test_analyze_call_fails_a_counterexample_or_a_mismatch[linearity]"),
           "a linearity counterexample fails the report"),
    Mutant("src/rotoxor/analysis.py",
           "return report.as_lines(), not report.mismatches",
           "return report.as_lines(), True",
           ("tests/test_cli.py::test_analyze_attack_mismatch_exits_5",
            "tests/test_cli.py::test_analyze_call_fails_a_counterexample_or_a_mismatch[attack]"),
           "attack mismatches fail the report"),
    Mutant("src/rotoxor/analysis.py",
           '_TRIAL_DEFAULTS = {"attack": 100, "repeated-block": 8}',
           '_TRIAL_DEFAULTS = {"attack": 100}',
           ("tests/test_cli.py::test_analyze_repeated_block_default",
            "tests/test_cli.py::test_analyze_call_derives_its_inputs_from_the_seed"),
           "repeated-block defaults to 8 block positions"),
    Mutant("src/rotoxor/analysis.py",
           "random_key(random.Random(seed)) if key is None",
           "random_key(random.Random(seed + 1)) if key is None",
           ("tests/test_reports.py::test_default_report_digest[attack]",
            "tests/test_cli.py::test_analyze_call_derives_its_inputs_from_the_seed"),
           "analyze's default key comes from --seed"),
    Mutant("src/rotoxor/analysis.py",
           "repeated_block_report(key, random.Random(seed).randbytes(64), trials)",
           "repeated_block_report(key, random.Random(seed + 1).randbytes(64), trials)",
           ("tests/test_cli.py::test_analyze_call_derives_its_inputs_from_the_seed",),
           "repeated-block's content comes from --seed; the digests cannot see it, since "
           "typical content collides nowhere"),
    Mutant("src/rotoxor/keys.py",
           "bytes(rng.choices(range(DIGIT_BASE), k=KEY_DIGITS))",
           "bytes(rng.choices(range(DIGIT_BASE), k=KEY_DIGITS))[::-1]",
           ("tests/test_keys.py::test_random_key_is_64_choices_of_the_eight_digits[0]",
            "tests/test_reports.py::test_default_report_digest[avalanche-key]"),
           "every key is drawn as 64 choices of the eight digits, in order"),
    Mutant("src/rotoxor/cli.py",
           "    key = None if args.key is None else keys.read_key_file(args.key)\n"
           "    from . import analysis\n",
           "    from . import analysis\n"
           "    key = None if args.key is None else keys.read_key_file(args.key)\n",
           ("tests/test_startup.py::test_analyze_key_errors_run_without_numpy[short-key]",
            "tests/test_startup.py::test_analyze_key_errors_run_without_numpy[missing-key]"),
           "analyze reads its key file before it loads numpy"),
)
