"""Lockstep pins between the CI pipeline and the repository it gates.

CI definitions rot silently: a benchmark family added to
``benchmarks/baseline.json`` but not to the smoke step is a gate that
never fires, and a setup step without pip caching quietly re-downloads
the toolchain on every run.  These tests parse the committed workflow
files (plain text — no YAML dependency) and fail when the pipeline and
the repository drift apart.
"""

import ast
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_YML = REPO_ROOT / ".github" / "workflows" / "ci.yml"
NIGHTLY_YML = REPO_ROOT / ".github" / "workflows" / "nightly.yml"
BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"
BENCH_DIR = REPO_ROOT / "benchmarks"
PYPROJECT = REPO_ROOT / "pyproject.toml"


def ci_text():
    return CI_YML.read_text(encoding="utf-8")


def nightly_text():
    return NIGHTLY_YML.read_text(encoding="utf-8")


def smoke_benchmark_files(text):
    """The ``benchmarks/bench_*.py`` paths the smoke-benchmark step runs."""
    return set(re.findall(r"benchmarks/(bench_\w+\.py)", text))


def benchmark_file_of(test_name):
    """The benchmarks/ file defining ``test_name`` (parametrised names have
    their ``[param]`` suffix stripped first)."""
    bare = test_name.split("[", 1)[0]
    pattern = re.compile(rf"^def {re.escape(bare)}\(", re.MULTILINE)
    owners = [path.name for path in sorted(BENCH_DIR.glob("bench_*.py"))
              if pattern.search(path.read_text(encoding="utf-8"))]
    assert owners, f"no benchmarks/bench_*.py defines {bare}"
    assert len(owners) == 1, f"{bare} defined in several files: {owners}"
    return owners[0]


class TestSmokeBenchmarkLockstep:
    def test_baseline_families_match_ci_smoke_list(self):
        """Every family gated by baseline.json is in CI's smoke step and
        vice versa — a baseline entry whose file CI never runs is a dead
        gate, and a smoke file without baseline entries is ungated."""
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        baseline_files = {benchmark_file_of(name)
                          for name in baseline["benchmarks"]}
        ci_files = smoke_benchmark_files(ci_text())
        assert ci_files == baseline_files, (
            f"ci.yml smoke list {sorted(ci_files)} != baseline families "
            f"{sorted(baseline_files)}; rerun the smoke set with "
            f"scripts/check_bench_regression.py --update or fix ci.yml")

    def test_cache_benchmarks_are_smoke_gated(self):
        assert "bench_cache.py" in smoke_benchmark_files(ci_text())

    def test_service_benchmarks_are_smoke_gated(self):
        assert "bench_service.py" in smoke_benchmark_files(ci_text())

    def test_snapshot_benchmarks_are_smoke_gated(self):
        assert "bench_snapshot.py" in smoke_benchmark_files(ci_text())

    def test_smoke_files_exist(self):
        for name in smoke_benchmark_files(ci_text()):
            assert (BENCH_DIR / name).is_file(), f"{name} missing"


class TestPipCaching:
    @staticmethod
    def assert_all_setup_python_steps_cache(text, source):
        """Every actions/setup-python step must enable pip caching (and
        key it on pyproject.toml, the only dependency manifest here)."""
        blocks = re.split(r"(?=- uses: actions/setup-python)", text)
        steps = [block for block in blocks
                 if block.startswith("- uses: actions/setup-python")]
        assert steps, f"no setup-python steps found in {source}"
        for step in steps:
            header = step.split("- name:", 1)[0]
            assert "cache: pip" in header, (
                f"a setup-python step in {source} lacks 'cache: pip'")
            assert "cache-dependency-path: pyproject.toml" in header, (
                f"a setup-python step in {source} lacks the dependency path")

    def test_ci_jobs_cache_pip(self):
        self.assert_all_setup_python_steps_cache(ci_text(), "ci.yml")

    def test_nightly_jobs_cache_pip(self):
        self.assert_all_setup_python_steps_cache(nightly_text(),
                                                 "nightly.yml")


class TestTriggers:
    def test_ci_supports_manual_dispatch(self):
        assert "workflow_dispatch:" in ci_text()

    def test_nightly_is_scheduled_and_dispatchable(self):
        text = nightly_text()
        assert "schedule:" in text
        assert re.search(r"cron:\s*\"[^\"]+\"", text)
        assert "workflow_dispatch:" in text


class TestNightlyFamilies:
    def test_nightly_runs_the_full_families(self):
        text = nightly_text()
        for family in ("bench_table4_revlib.py", "bench_table5_algorithms.py",
                       "bench_ablations.py", "bench_accuracy.py"):
            assert family in text, f"nightly.yml misses {family}"
            assert (BENCH_DIR / family).is_file()

    def test_nightly_uploads_json_reports(self):
        text = nightly_text()
        assert "--benchmark-json=" in text
        assert "actions/upload-artifact" in text


class TestCoverageGate:
    def test_ci_has_a_coverage_job(self):
        text = ci_text()
        assert re.search(r"^  coverage:", text, re.MULTILINE)
        assert ".[test,cov]" in text
        assert "--cov=repro" in text

    def test_minimum_percentage_is_committed(self):
        pyproject = PYPROJECT.read_text(encoding="utf-8")
        assert "[tool.coverage.report]" in pyproject
        match = re.search(r"^fail_under\s*=\s*(\d+)", pyproject, re.MULTILINE)
        assert match, "pyproject.toml commits no coverage fail_under"
        assert int(match.group(1)) >= 75, "coverage floor eroded below 75%"

    def test_cov_extra_is_declared(self):
        pyproject = PYPROJECT.read_text(encoding="utf-8")
        assert re.search(r"^cov\s*=\s*\[", pyproject, re.MULTILINE)


def declared_modules():
    """Import names of the distributions ``pyproject.toml`` declares in
    ``dependencies`` and in the ``test`` extra (``pytest-benchmark`` ->
    ``pytest_benchmark``)."""
    pyproject = PYPROJECT.read_text(encoding="utf-8")
    names = set()
    for key in ("dependencies", "test"):
        match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", pyproject,
                          re.MULTILINE | re.DOTALL)
        assert match, f"pyproject.toml declares no {key} list"
        for requirement in re.findall(r'"([A-Za-z0-9_.-]+)', match.group(1)):
            names.add(requirement.lower().replace("-", "_"))
    return names


class TestTestDependencies:
    def test_every_third_party_import_under_tests_is_declared(self):
        """CI installs ``.[test]`` and nothing else, so a module a test
        imports that no dependency list declares fails collection there
        while passing on a machine that happens to have it."""
        first_party = {"repro", "tests"}
        declared = declared_modules()
        undeclared = {}
        for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if (top not in sys.stdlib_module_names
                            and top not in first_party
                            and top.lower() not in declared):
                        undeclared.setdefault(top, path.name)
        assert not undeclared, (
            f"imported under tests/ but not declared in pyproject.toml: "
            f"{undeclared}")


def job_sections(text, source):
    """Split a workflow's ``jobs:`` mapping into one text block per job."""
    assert "\njobs:\n" in text, f"{source} has no jobs mapping"
    block = text.split("\njobs:\n", 1)[1]
    jobs = {}
    for section in re.split(r"^(?=  [\w-]+:\s*$)", block, flags=re.MULTILINE):
        lines = section.splitlines()
        match = re.match(r"^  ([\w-]+):\s*$", lines[0]) if lines else None
        if match:
            jobs[match.group(1)] = section
    assert jobs, f"no jobs parsed from {source}"
    return jobs


class TestPerfbenchTests:
    def test_perfbench_tests_run_in_the_tier1_job(self):
        """The repository benchmark (``perfbench/``) carries its own tests,
        outside the default collection; the tier-1 job runs them so a
        change that breaks the benchmark's harness fails CI, not the next
        benchmark run."""
        jobs = job_sections(ci_text(), "ci.yml")
        assert "python -m pytest perfbench -q" in jobs["tests"]
        assert (REPO_ROOT / "perfbench" / "test_perfbench.py").is_file()

    def test_declared_cache_metrics_match_the_manager_op_tags(self):
        """``BENCHMARK.json`` declares one ``bdd.cache_<op>_hit_rate`` per
        computed-table slot of the BDD manager, and perfbench emits exactly
        the declared set; a kernel change that adds or drops an op tag must
        fail here, in the tier-1 suite, not only in perfbench's own tests."""
        from repro.bdd.manager import OP_NAMES

        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        names = {metric["name"] for metric in declared["per_layer"]}
        cache_rates = {name for name in names
                       if re.fullmatch(r"bdd\.cache_\w+_hit_rate", name)}
        assert "bdd.cache_hit_rate" in names
        assert cache_rates == {f"bdd.cache_{op}_hit_rate" for op in OP_NAMES}


class TestChaosSuiteJob:
    def test_chaos_suite_is_a_separate_ci_job(self):
        """The seeded fault schedules run as their own job, so a
        resilience regression is attributable at a glance instead of
        drowning in the tier-1 matrix."""
        jobs = job_sections(ci_text(), "ci.yml")
        assert "chaos" in jobs, "ci.yml lost the chaos job"
        assert "tests/resilience" in jobs["chaos"]
        assert (REPO_ROOT / "tests" / "resilience").is_dir()
        # The sweep-resume pins live under tests/snapshot, not under
        # tests/resilience, so the chaos job runs them as a step of its own.
        assert "tests/snapshot/test_checkpoint_resume.py" in jobs["chaos"]
        assert (REPO_ROOT / "tests" / "snapshot"
                / "test_checkpoint_resume.py").is_file()

    def test_sigkill_resume_scenarios_are_pinned(self):
        """The checkpointing acceptance gates — real subprocesses killed
        with SIGKILL that must resume byte-identically — run as their own
        named step inside the chaos job, so a crash-safety regression is
        attributable at a glance."""
        jobs = job_sections(ci_text(), "ci.yml")
        assert "tests/resilience/test_sigkill_resume.py" in jobs["chaos"]
        assert (REPO_ROOT / "tests" / "resilience"
                / "test_sigkill_resume.py").is_file()

    def test_chaos_suite_stays_in_tier1_too(self):
        """The separate job isolates attribution; it must not become an
        excuse to drop the chaos tests from the default pytest run."""
        conftest = (REPO_ROOT / "tests" / "conftest.py")
        if conftest.exists():
            text = conftest.read_text(encoding="utf-8")
            assert "resilience" not in text, (
                "tests/conftest.py special-cases tests/resilience — the "
                "chaos suite must stay in the default collection")


class TestJobTimeouts:
    @staticmethod
    def assert_every_job_times_out(text, source):
        """A hung runner bills until the 6-hour GitHub default kills it;
        every job carries an explicit timeout-minutes instead."""
        for name, section in job_sections(text, source).items():
            assert "timeout-minutes:" in section, (
                f"job {name!r} in {source} has no timeout-minutes")

    def test_ci_jobs_have_timeouts(self):
        self.assert_every_job_times_out(ci_text(), "ci.yml")

    def test_nightly_jobs_have_timeouts(self):
        self.assert_every_job_times_out(nightly_text(), "nightly.yml")


class TestHarnessOverTheWire:
    @staticmethod
    def wire_step():
        """The tier-1 job's step that drives the harness through a live
        ``repro-serve``."""
        steps = job_sections(ci_text(), "ci.yml")["tests"].split("- name:")
        matching = [step for step in steps if "repro-serve" in step]
        assert len(matching) == 1, "ci.yml's tier-1 job lost the wire step"
        return matching[0]

    def test_harness_sweep_runs_through_a_unix_socket_server(self):
        """A sweep sent with ``--server`` reaches a real server: the step
        starts ``repro-serve --unix`` and points the table3 harness at it."""
        step = self.wire_step()
        assert "repro-serve --unix" in step
        assert re.search(r"python -m repro\.harness table3 --quick "
                         r"--engines bitslice,qmdd\s*\\?\s*"
                         r"--server \"?unix:", step)
        assert "--json harness-table3-wire.json" in step

    def test_wire_runs_must_equal_the_local_report(self):
        """Every run's status, final probability and peak node count over
        the wire must equal the local harness step's JSON report."""
        step = self.wire_step()
        assert "harness-table3.json" in step
        for field in ("status", "final_probability", "peak_memory_nodes"):
            assert f'"{field}"' in step
        assert "assert wire == local" in step
        local_step = job_sections(ci_text(), "ci.yml")["tests"]
        assert local_step.index("--json harness-table3.json") < \
            local_step.index("repro-serve --unix")


class TestImportTimeSummary:
    def test_tier1_job_summarises_the_import_time_of_import_repro(self):
        """After the install, each tier-1 job (one per Python version)
        profiles ``import repro`` with ``-X importtime`` and writes the 15
        largest cumulative entries to the run summary, so a module that
        creeps back into the package import shows there."""
        job = job_sections(ci_text(), "ci.yml")["tests"]
        steps = job.split("- name:")
        matching = [step for step in steps
                    if 'python -X importtime -c "import repro"' in step]
        assert len(matching) == 1, "ci.yml's tier-1 job lost the step"
        step = matching[0]
        assert re.search(r"sort -t '\|' -k 2 -n -r \| head -15", step)
        assert '>> "$GITHUB_STEP_SUMMARY"' in step
        assert "matrix.python-version" in step
        assert (job.index("pip install -e .[test]")
                < job.index("-X importtime")
                < job.index("python -m pytest -x -q"))
