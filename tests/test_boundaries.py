"""Module boundaries, read from the source with ast: the engine never
imports the test oracle, the oracle never imports the engine's arithmetic
and takes no base change from weil, each integer primitive and polynomial
helper has exactly one definition, and localalg never searches over the
residues of ell."""

import ast
from pathlib import Path

import polarglue
from polarglue import cli, weil

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "polarglue"
PRIMITIVES = (
    "factor_integer", "is_probable_prime", "kronecker_symbol",
    "squarefree_part", "is_squarefree",
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_modules(path: Path) -> set[str]:
    """Package modules a polarglue source file imports, by bare name."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("polarglue").lstrip(".")
            if base:
                out.add(base.split(".")[0])
            else:  # from . import a, b  /  from polarglue import a, b
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("polarglue."):
                    out.add(alias.name.split(".")[1])
    return out


def test_only_the_oracle_module_knows_the_oracle():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "oracle":
            assert "oracle" not in _imported_modules(path), path.name


def test_oracle_shares_no_arithmetic_with_the_engine():
    assert "arith" not in _imported_modules(PACKAGE / "oracle.py")


def test_each_primitive_is_defined_once():
    """Module-level functions only, so a method of the same name would not
    count as a second definition."""
    defined: dict[str, list[str]] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
    for name in PRIMITIVES:
        assert defined.get(name) == ["arith.py"], (name, defined.get(name))
    assert "_smallest_prime_factor" not in defined
    assert "squarefree_decompose" not in defined
    assert defined.get("divmod_monic") == ["oracle.py"]
    for name in ("pow_mod", "gcd_mod"):
        assert defined.get(name) == ["polys.py"], (name, defined.get(name))
    assert defined.get("trial_factor_mod_prime") == ["oracle.py"]
    for name in ("power_sums", "_elementary_from_power_sums"):
        assert defined.get(name) == ["oracle.py"], (name, defined.get(name))
    assert "_base_change_coeffs" not in defined


def _assert_defined_nowhere(names: set[str]) -> None:
    """No function or class under src/ has one of these names, and the
    package exports none of them."""
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in names, (path.name, node.name)
    assert not names & set(vars(polarglue))


def test_real_companion_lives_on_the_surface():
    """h is WeilSurface.h / real_coefficients / real_discriminant; no module
    defines a separate wrapper for it."""
    _assert_defined_nowhere({"RealWeilPolynomial", "real_weil", "eval_real"})
    assert {"h", "real_coefficients", "real_discriminant"} <= set(vars(weil.WeilSurface))


def test_unread_gluing_helpers_stay_deleted():
    """The gluing exponent report, the twisting-prime search and the helpers
    that served only them: no command, scan row or verdict reads them."""
    _assert_defined_nowhere({
        "gluing_exponent", "GluingExponentReport", "find_twisting_prime",
        "_is_square_mod_prime_power", "HypothesisViolated", "is_irreducible",
    })


def test_one_scan_writer():
    """_write_scan formats every scan row, and cli turns enums into text
    only in _row_flags, _verdict_payload and cmd_obstruct's status."""
    _assert_defined_nowhere({"_write_csv", "_write_json", "_row_query"})

    def value_reads(node: ast.AST) -> int:
        return sum(isinstance(n, ast.Attribute) and n.attr == "value" for n in ast.walk(node))

    tree = _tree(PACKAGE / "cli.py")
    allowed = [
        node for node in tree.body if isinstance(node, ast.FunctionDef)
        and node.name in {"_row_flags", "_verdict_payload", "cmd_obstruct"}
    ]
    assert len(allowed) == 3
    assert value_reads(tree) == sum(map(value_reads, allowed))


def test_ell_is_checked_in_one_place():
    """NotPrime and CharacteristicPrime are each raised once under src/, in
    localalg.check_ell, which every per-prime function calls."""
    raised: dict[str, list[str]] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = getattr(node.exc.func, "id", None) or getattr(node.exc.func, "attr", None)
                raised.setdefault(name, []).append(path.name)
    for error in ("NotPrime", "CharacteristicPrime"):
        assert raised.get(error) == ["localalg.py"], (error, raised.get(error))


def test_oracle_takes_no_base_change_from_weil():
    """Base change in the oracle is its own (power sums), so the only names
    it takes from weil are the two variety types, the quartic factor-shape
    test, and the p-rank classification that decide_reference needs for
    the p-branch."""
    taken = set()
    for node in ast.walk(_tree(PACKAGE / "oracle.py")):
        if isinstance(node, ast.ImportFrom) and node.module in ("weil", "polarglue.weil"):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names}
            assert "weil" not in names and "polarglue.weil" not in names, ast.unparse(node)
    assert taken == {
        "WeilSurface", "WeilElliptic", "_weil_quartic_reducible", "PRank", "classify_p_rank",
    }


def test_localalg_never_loops_over_the_residues_of_ell():
    """No range(...) in localalg.py mentions ell, so factoring mod ell
    cannot quietly fall back to a search over F_ell."""
    for node in ast.walk(_tree(PACKAGE / "localalg.py")):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
            names = {
                getattr(sub, "id", None) or getattr(sub, "attr", None)
                for arg in node.args for sub in ast.walk(arg)
            }
            assert "ell" not in names, ast.unparse(node)


def test_scripts_take_primitives_from_arith():
    assert "arith" in _imported_modules(REPO / "scripts" / "exceptional_census.py")


def test_one_validation_error_base():
    assert cli._VALIDATION_ERRORS == (weil.ValidationError,)
