"""AST utility tests: cloning, substitution, return elimination."""

import pytest

from repro.interp import run_program
from repro.lang import parse
from repro.lang import ast_nodes as ast
from repro.lang.types import BOOL, INT
from repro.ir.astutils import (
    Cloner,
    contains_return,
    eliminate_returns,
    fresh_symbol,
    make_identifier,
    make_int_literal,
)


def parsed_main(source):
    program, info = parse(source)
    return program, info, program.function("main")


def test_each_child_field_holds_statements_or_expressions():
    for node_class in vars(ast).values():
        if not (isinstance(node_class, type)
                and issubclass(node_class, (ast.Stmt, ast.Expr))):
            continue
        fields = node_class.child_fields
        split = node_class.stmt_fields + node_class.expr_fields
        assert sorted(split, key=fields.index) == list(fields), node_class
    assert ast.For.stmt_fields == ("init", "step", "body")
    assert ast.For.expr_fields == ("cond",)


def test_fresh_symbols_are_unique():
    a = fresh_symbol("x", INT)
    b = fresh_symbol("x", INT)
    assert a is not b
    assert a.unique_name != b.unique_name


def test_clone_declarations_get_fresh_symbols():
    _, _, fn = parsed_main("int main() { int x = 1; x = x + 1; return x; }")
    clone = Cloner().stmt(fn.body)
    original_decl = next(
        s for s in ast.walk_stmts(fn.body) if isinstance(s, ast.VarDecl)
    )
    cloned_decl = next(
        s for s in ast.walk_stmts(clone) if isinstance(s, ast.VarDecl)
    )
    assert cloned_decl.symbol is not original_decl.symbol  # type: ignore[attr-defined]
    # Identifiers inside the clone reference the fresh symbol.
    cloned_reads = [
        e for s in ast.walk_stmts(clone)
        for root in ast.stmt_expressions(s)
        for e in ast.walk_expr(root)
        if isinstance(e, ast.Identifier)
    ]
    assert all(
        e.symbol is cloned_decl.symbol for e in cloned_reads  # type: ignore[attr-defined]
    )


def test_clone_shares_undeclared_symbols():
    _, _, fn = parsed_main("int g; int main() { g = 5; return g; }")
    clone = Cloner().stmt(fn.body)
    read = next(
        e for s in ast.walk_stmts(clone)
        for root in ast.stmt_expressions(s)
        for e in ast.walk_expr(root)
        if isinstance(e, ast.Identifier)
    )
    original = next(
        e for s in ast.walk_stmts(fn.body)
        for root in ast.stmt_expressions(s)
        for e in ast.walk_expr(root)
        if isinstance(e, ast.Identifier)
    )
    assert read.symbol is original.symbol  # type: ignore[attr-defined]


def test_substitution_replaces_identifiers_with_expressions():
    _, _, fn = parsed_main("int main(int a) { return a + a; }")
    param = fn.params[0].symbol  # type: ignore[attr-defined]
    replacement = make_int_literal(21, INT)
    clone = Cloner(substitutions={param: replacement}).stmt(fn.body)
    literals = [
        e.value for s in ast.walk_stmts(clone)
        for root in ast.stmt_expressions(s)
        for e in ast.walk_expr(root)
        if isinstance(e, ast.IntLiteral)
    ]
    assert literals == [21, 21]


def test_substituted_expressions_are_not_shared():
    _, _, fn = parsed_main("int main(int a) { return a + a; }")
    param = fn.params[0].symbol  # type: ignore[attr-defined]
    replacement = make_int_literal(3, INT)
    clone = Cloner(substitutions={param: replacement}).stmt(fn.body)
    nodes = [
        e for s in ast.walk_stmts(clone)
        for root in ast.stmt_expressions(s)
        for e in ast.walk_expr(root)
        if isinstance(e, ast.IntLiteral)
    ]
    assert nodes[0] is not nodes[1]


def test_contains_return():
    _, _, with_return = parsed_main("int main() { if (true) { return 1; } return 2; }")
    assert contains_return(with_return.body)
    program, _ = parse("void main2() { int x = 1; } int main() { return 0; }")
    assert not contains_return(program.function("main2").body)


def _run_returnified(source, args=()):
    """Returnify main's body, wrap it so the result var is returned, and
    check behavior is unchanged."""
    program, info = parse(source)
    fn = program.function("main")
    golden = run_program(program, info, "main", args)

    result_symbol = fresh_symbol("result", INT)
    done_symbol = fresh_symbol("done", BOOL)
    body = eliminate_returns(Cloner().stmt(fn.body), result_symbol, done_symbol)
    assert not contains_return(body)

    decls = []
    for symbol in (result_symbol, done_symbol):
        decl = ast.VarDecl(name=symbol.name, var_type=symbol.type)
        decl.symbol = symbol  # type: ignore[attr-defined]
        decls.append(decl)
    tail = ast.Return(value=make_identifier(result_symbol))
    new_fn = ast.FunctionDef(
        name="main", return_type=fn.return_type, params=fn.params,
        body=ast.Block(statements=decls + [body, tail]),
    )
    new_program = ast.Program(
        functions=[new_fn], globals=program.globals, channels=program.channels
    )
    rerun = run_program(new_program, info, "main", args)
    assert rerun.value == golden.value
    return body


def test_returnify_straight_line():
    _run_returnified("int main() { return 41 + 1; }")


def test_returnify_early_return_in_if():
    for arg in (1, 20):
        _run_returnified(
            "int main(int a) { if (a < 10) { return 1; } int x = a * 2; return x; }",
            (arg,),
        )


def test_returnify_return_inside_loop():
    for arg in (3, 100):
        _run_returnified(
            """
            int main(int a) {
                for (int i = 0; i < 10; i++) {
                    if (i * i >= a) { return i; }
                }
                return 0 - 1;
            }
            """,
            (arg,),
        )


def test_returnify_return_inside_do_while():
    _run_returnified(
        """
        int main(int a) {
            int i = 0;
            do {
                if (i == a) { return i * 100; }
                i++;
            } while (i < 5);
            return 7;
        }
        """,
        (3,),
    )


def test_returnify_guards_statements_after_return_site():
    # The statements after the early-returning if must be skipped once
    # done is set — the counter must show exactly one bump.
    _run_returnified(
        """
        int count;
        int main(int a) {
            count = count + 1;
            if (a > 0) { return 1; }
            count = count + 1;
            return 2;
        }
        """,
        (5,),
    )


def test_returnify_rejects_return_in_par():
    program, info = parse(
        "int main() { par { seq { return 1; } } return 0; }"
    )
    from repro.lang.errors import SemanticError

    fn = program.function("main")
    with pytest.raises(SemanticError):
        eliminate_returns(
            Cloner().stmt(fn.body), fresh_symbol("r", INT), fresh_symbol("d", BOOL)
        )
