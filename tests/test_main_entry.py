"""``python -m repro``: example resolution (source tree AND installed
wheel layouts) plus subcommand dispatch."""

from pathlib import Path

from repro.__main__ import (
    EXAMPLES,
    candidate_example_dirs,
    find_examples_dir,
    main,
)


def fake_source_checkout(tmp_path: Path) -> Path:
    """<repo>/src/repro/__main__.py with <repo>/examples alongside."""
    package_file = tmp_path / "src" / "repro" / "__main__.py"
    package_file.parent.mkdir(parents=True)
    package_file.write_text("")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "quickstart.py").write_text("print('hi')\n")
    return package_file


def fake_wheel_install(tmp_path: Path) -> Path:
    """site-packages/repro/__main__.py + <prefix>/share/repro/examples."""
    package_file = (
        tmp_path / "lib" / "python" / "site-packages" / "repro" / "__main__.py"
    )
    package_file.parent.mkdir(parents=True)
    package_file.write_text("")
    examples = tmp_path / "share" / "repro" / "examples"
    examples.mkdir(parents=True)
    (examples / "quickstart.py").write_text("print('hi')\n")
    return package_file


def test_source_checkout_layout_resolves(tmp_path):
    package_file = fake_source_checkout(tmp_path)
    found = find_examples_dir(package_file=str(package_file))
    assert found == tmp_path / "examples"


def test_installed_wheel_layout_resolves(tmp_path):
    package_file = fake_wheel_install(tmp_path)
    found = find_examples_dir(
        package_file=str(package_file), prefix=str(tmp_path)
    )
    assert found == tmp_path / "share" / "repro" / "examples"


def test_source_layout_wins_over_prefix(tmp_path):
    # A source checkout run inside a venv that ALSO has the wheel data:
    # the checkout's examples (most specific candidate) win.
    package_file = fake_source_checkout(tmp_path)
    wheel_examples = tmp_path / "share" / "repro" / "examples"
    wheel_examples.mkdir(parents=True)
    (wheel_examples / "quickstart.py").write_text("")
    found = find_examples_dir(
        package_file=str(package_file), prefix=str(tmp_path)
    )
    assert found == tmp_path / "examples"


def test_missing_examples_reports_all_candidates(tmp_path):
    package_file = tmp_path / "repro" / "__main__.py"
    package_file.parent.mkdir(parents=True)
    package_file.write_text("")
    candidates = candidate_example_dirs(
        package_file=str(package_file), prefix=str(tmp_path)
    )
    assert find_examples_dir(
        package_file=str(package_file), prefix=str(tmp_path)
    ) is None
    assert len(candidates) == 3
    assert tmp_path / "share" / "repro" / "examples" in candidates


def test_real_package_finds_the_repo_examples():
    # In this checkout the bundled examples must resolve.
    found = find_examples_dir()
    assert found is not None
    for name in EXAMPLES:
        assert (found / f"{name}.py").is_file(), name


def test_usage_on_unknown_example(capsys):
    assert main(["not-an-example"]) == 1
    out = capsys.readouterr().out
    assert "usage:" in out
    assert "quickstart" in out


def test_retired_bench_subcommand_is_an_unknown_name(capsys):
    # The wall-clock harness is gone (docs/PERFORMANCE.md §Measuring):
    # `bench` gets the usage like any other unknown name, and the usage
    # does not advertise it.
    assert main(["bench"]) == 1
    out = capsys.readouterr().out
    assert "usage:" in out
    assert "bench" not in out


def test_bare_invocation_lists_examples(capsys):
    assert main([]) == 0
    assert "available examples" in capsys.readouterr().out


def test_fuzz_subcommand_dispatches(capsys):
    assert main(["fuzz", "--iters", "0"]) == 0
    assert "0 iteration(s)" in capsys.readouterr().out
