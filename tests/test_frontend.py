import pytest
from hypothesis import given, settings

import strategies as gen
from cimp import syntax as sx
from cimp.errors import CimpError
from cimp.frontend import (
    ARITH_OPS,
    ARITH_PREFIX,
    FORMULA_OPS,
    FORMULA_PREFIX,
    MAX_NESTING,
    LexError,
    NestingError,
    ParseError,
    Token,
    lex,
    parse,
    parse_assertion_text,
    parse_program,
    pretty,
    pretty_expr,
)


# ---------------------------------------------------------------------------
# Lexer


def kinds_and_lexemes(src):
    return [(t.kind, t.lexeme) for t in lex(src)]


def test_lex_assignment():
    assert kinds_and_lexemes("x := 1") == [
        ("ident", "x"),
        ("op", ":="),
        ("int", "1"),
        ("eoi", ""),
    ]


def test_lex_empty_input_is_just_eoi():
    assert kinds_and_lexemes("") == [("eoi", "")]
    assert lex("")[0].pos == sx.SrcPos(1, 1)


def test_lex_rejects_foreign_character():
    with pytest.raises(LexError) as ei:
        lex("x @ y")
    assert ei.value.char == "@"
    assert ei.value.pos == sx.SrcPos(1, 3)


def test_lex_comments_and_whitespace_discarded():
    src = "// header\nx := 1 // trailing\n  // another\ny := 2\n"
    lexemes = [t.lexeme for t in lex(src) if t.kind != "eoi"]
    assert lexemes == ["x", ":=", "1", "y", ":=", "2"]


def test_lex_maximal_munch():
    ops = [t.lexeme for t in lex("<< >> <= < := : && & || | ->") if t.kind != "eoi"]
    assert ops == ["<<", ">>", "<=", "<", ":=", ":", "&&", "&", "||", "|", "->"]


def test_lex_tracks_lines_and_columns():
    toks = lex("skip;\n  x := 10")
    x = next(t for t in toks if t.lexeme == "x")
    assert (x.line, x.col) == (2, 3)
    ten = next(t for t in toks if t.lexeme == "10")
    assert (ten.line, ten.col) == (2, 8)


def test_keywords_are_not_identifiers():
    assert lex("while")[0].kind == "keyword"
    assert lex("whilex")[0].kind == "ident"
    assert lex("i32")[0].kind == "keyword"


def test_lex_tabs_count_one_column():
    toks = lex("x\t:=\t\t7")
    assert [(t.lexeme, t.line, t.col) for t in toks] == [
        ("x", 1, 1), (":=", 1, 3), ("7", 1, 7), ("", 1, 8)
    ]


def test_lex_crlf_line_endings():
    toks = lex("x := 1;\r\n  y := 2\r\n")
    y = next(t for t in toks if t.lexeme == "y")
    assert (y.line, y.col) == (2, 3)
    assert (toks[-1].kind, toks[-1].line, toks[-1].col) == ("eoi", 3, 1)


def test_lex_comment_at_end_of_input_without_newline():
    toks = lex("x := 1 // done")
    assert [t.lexeme for t in toks] == ["x", ":=", "1", ""]
    assert (toks[-1].line, toks[-1].col) == (1, 15)


def test_lex_bad_character_after_comment_lines():
    src = "// first\n// second, with @ inside\n  x := 1 // third\n\t  $"
    with pytest.raises(LexError) as ei:
        lex(src)
    assert ei.value.char == "$"
    assert ei.value.pos == sx.SrcPos(4, 4)


def test_lex_positions_after_skipped_text():
    # each token is one match that also skips the whitespace and comments
    # before it, so positions must count what that match skipped
    src = "x :=\t0x1F; // c\r\n\ty := 0X2a // end"
    assert [tuple(t) for t in lex(src)] == [
        ("ident", "x", 1, 1), ("op", ":=", 1, 3), ("int", "0x1F", 1, 6),
        ("punct", ";", 1, 10), ("ident", "y", 2, 2), ("op", ":=", 2, 4),
        ("int", "0X2a", 2, 7), ("eoi", "", 2, 18),
    ]
    assert rhs("x := 0X2a") == sx.IntLit(42)
    for bad, char, pos in (("x := 1 //\r\n\t@", "@", sx.SrcPos(2, 2)),
                           ("x := 1 /", "/", sx.SrcPos(1, 8))):
        with pytest.raises(LexError) as ei:
            lex(bad)
        assert (ei.value.char, ei.value.pos) == (char, pos)


def test_lex_token_is_a_plain_tuple():
    assert tuple(lex("while")[0]) == ("keyword", "while", 1, 1)
    assert lex("")[0].describe() == "end of input"


def test_lexer_covers_input():
    src = "while x <= 9 invariant { true } do x := x + 1 done"
    total = sum(len(t.lexeme) for t in lex(src))
    assert total == len(src.replace(" ", ""))


# ---------------------------------------------------------------------------
# Parser: precedence and associativity


def body(src):
    return parse_program(src).body


def rhs(src):
    c = body(src)
    assert isinstance(c, sx.Assign)
    return c.rhs


def test_mul_binds_tighter_than_add():
    assert rhs("x := a + 1 * 2") == sx.BinOp(
        "+", sx.Var("a"), sx.BinOp("*", sx.IntLit(1), sx.IntLit(2))
    )


def test_sub_is_left_associative():
    assert rhs("x := a - b - c") == sx.BinOp(
        "-", sx.BinOp("-", sx.Var("a"), sx.Var("b")), sx.Var("c")
    )


def test_keyword_delimited_conditional():
    assert body("if true then skip else skip end") == sx.If(
        sx.BoolLit(True), sx.Skip(), sx.Skip()
    )


def test_add_never_parses_with_mul_at_root():
    e = rhs("x := a + b * c")
    assert isinstance(e, sx.BinOp) and e.op == "+"


def test_or_at_root_over_and():
    p = body("if a < b || b < c && c < d then skip else skip end")
    assert isinstance(p.cond, sx.Or)


def test_seq_nests_to_the_right():
    c = body("skip; x := 1; skip")
    assert c == sx.Seq(sx.Skip(), sx.Seq(sx.Assign("x", sx.IntLit(1)), sx.Skip()))


def test_bit_ops_share_one_level_left_assoc():
    e = rhs("x := a & b | c ^ d")
    assert e == sx.BitOp(
        "^", sx.BitOp("|", sx.BitOp("&", sx.Var("a"), sx.Var("b")), sx.Var("c")),
        sx.Var("d"),
    )


def test_bit_ops_bind_tighter_than_mul():
    assert rhs("x := a * b << c") == sx.BinOp(
        "*", sx.Var("a"), sx.BitOp("<<", sx.Var("b"), sx.Var("c"))
    )


def test_unary_binds_tighter_than_bits():
    assert rhs("x := ~a & -b") == sx.BitOp(
        "&", sx.BitNot(sx.Var("a")), sx.Neg(sx.Var("b"))
    )


def test_negative_literal_is_neg_node():
    assert rhs("x := -5") == sx.Neg(sx.IntLit(5))
    assert rhs("x := a - -5") == sx.BinOp("-", sx.Var("a"), sx.Neg(sx.IntLit(5)))


def test_cast_syntax():
    assert rhs("x := i32(a + 1)") == sx.Cast(
        sx.Ty.I32, sx.BinOp("+", sx.Var("a"), sx.IntLit(1))
    )
    assert rhs("x := u32(x) >> 1") == sx.BitOp(
        ">>", sx.Cast(sx.Ty.U32, sx.Var("x")), sx.IntLit(1)
    )


def test_not_binds_comparison():
    p = body("if !x = y then skip else skip end")
    assert p.cond == sx.Not(sx.Cmp("=", sx.Var("x"), sx.Var("y")))


def test_parenthesized_bool_vs_comparison():
    left = body("if (x + 1) <= y then skip else skip end").cond
    assert left == sx.Cmp(
        "<=", sx.BinOp("+", sx.Var("x"), sx.IntLit(1)), sx.Var("y")
    )
    grouped = body("if (x < y) && true then skip else skip end").cond
    assert grouped == sx.And(sx.Cmp("<", sx.Var("x"), sx.Var("y")), sx.BoolLit(True))
    nested = body("if ((x < y)) then skip else skip end").cond
    assert nested == sx.Cmp("<", sx.Var("x"), sx.Var("y"))


def test_while_with_invariant():
    p = body("while x <= 9 invariant { 0 <= x && x <= 10 } do x := x + 1 done")
    assert isinstance(p, sx.While)
    assert p.invariant == sx.And(
        sx.Cmp("<=", sx.IntLit(0), sx.Var("x")),
        sx.Cmp("<=", sx.Var("x"), sx.IntLit(10)),
    )


def test_while_without_invariant():
    p = body("while 1 <= x do x := x - 1 done")
    assert isinstance(p, sx.While) and p.invariant is None


def test_declarations():
    p = parse_program("var x: i32;\nvar y: u32;\nvar z;\nskip")
    assert p.decls == (("x", sx.Ty.I32), ("y", sx.Ty.U32), ("z", None))
    assert p.typed


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_program("var x; var x: u32; skip")


def test_untyped_program_has_no_decls():
    p = parse_program("x := 1")
    assert p.decls == () and not p.typed


# ---------------------------------------------------------------------------
# Parser: assertions


def test_implication_is_right_associative():
    a = parse_assertion_text("x = 0 -> y = 0 -> z = 0")
    assert isinstance(a, sx.Implies)
    assert isinstance(a.right, sx.Implies)
    # each implication sits at its own arrow
    assert (a.pos, a.right.pos) == (sx.SrcPos(1, 7), sx.SrcPos(1, 16))


def test_implication_in_a_condition_fails_at_its_first_arrow():
    with pytest.raises(CimpError) as ei:
        parse_program("if x = 0 -> y = 0 -> z = 0 then skip else skip end")
    assert ei.value.pos == sx.SrcPos(1, 10)
    assert ei.value.msg == "'->' may appear in specifications only"


@pytest.mark.parametrize("n", [3000, 10**4])
def test_roundtrip_long_implication_chain(n):
    text = " -> ".join(f"x = {i}" for i in range(n))
    a = parse_assertion_text(text)
    assert pretty_expr(a) == text
    assert sx.equal(parse_assertion_text(pretty_expr(a)), a)


def test_implication_lowest_precedence():
    a = parse_assertion_text("x = 0 && true -> false")
    assert isinstance(a, sx.Implies)
    assert isinstance(a.left, sx.And)


def test_parenthesized_implication():
    a = parse_assertion_text("(x = 0 -> y = 0) -> z = 0")
    assert isinstance(a, sx.Implies)
    assert isinstance(a.left, sx.Implies)


# ---------------------------------------------------------------------------
# Parse errors


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as ei:
        parse_program("if true skip else skip end")
    assert ei.value.pos == sx.SrcPos(1, 9)
    assert "'then'" in ei.value.msg


def test_parse_error_on_missing_operand():
    with pytest.raises(ParseError) as ei:
        parse_program("x := 1 +")
    assert "integer literal" in ei.value.msg


def test_parse_error_trailing_tokens():
    with pytest.raises(ParseError) as ei:
        parse_program("skip skip")
    assert "';'" in ei.value.msg


def test_parse_error_on_trailing_semicolon():
    with pytest.raises(ParseError):
        parse_program("x := 1;")


def test_parse_error_furthest_alternative_wins():
    # '(x' opens either a grouped formula or a comparison operand; the
    # reported failure is from whichever alternative got further.
    with pytest.raises(ParseError) as ei:
        parse_program("if (x then skip else skip end")
    assert "'then'" in ei.value.found.describe() or "then" in ei.value.msg


# ---------------------------------------------------------------------------
# Pretty printer


def test_pretty_precedence_no_parens():
    e = sx.BinOp("+", sx.Var("a"), sx.BinOp("*", sx.IntLit(1), sx.IntLit(2)))
    assert pretty_expr(e) == "a + 1 * 2"


def test_pretty_forced_parens():
    e = sx.BinOp("*", sx.BinOp("+", sx.Var("a"), sx.IntLit(1)), sx.IntLit(2))
    assert pretty_expr(e) == "(a + 1) * 2"


def test_pretty_skip():
    assert pretty(sx.program(sx.Skip())) == "skip\n"


def test_pretty_left_assoc_parens_on_right():
    e = sx.BinOp("-", sx.Var("a"), sx.BinOp("-", sx.Var("b"), sx.Var("c")))
    assert pretty_expr(e) == "a - (b - c)"
    e2 = sx.BinOp("-", sx.BinOp("-", sx.Var("a"), sx.Var("b")), sx.Var("c"))
    assert pretty_expr(e2) == "a - b - c"


def test_pretty_unary_stacking():
    assert pretty_expr(sx.Neg(sx.Neg(sx.Var("x")))) == "--x"
    assert pretty_expr(sx.Neg(sx.BinOp("*", sx.Var("x"), sx.Var("y")))) == "-(x * y)"


def test_pretty_bool_minimal_parens():
    b = sx.And(sx.Or(sx.BoolLit(True), sx.BoolLit(False)), sx.BoolLit(True))
    assert pretty_expr(b) == "(true || false) && true"


def test_pretty_assertion_implication():
    a = sx.Implies(sx.Implies(sx.BoolLit(True), sx.BoolLit(False)), sx.BoolLit(True))
    assert pretty_expr(a) == "(true -> false) -> true"
    b = sx.Implies(sx.BoolLit(True), sx.Implies(sx.BoolLit(False), sx.BoolLit(True)))
    assert pretty_expr(b) == "true -> false -> true"



def _binary(ops, lexeme, left, right):
    cls = ops[lexeme]
    return cls(lexeme, left, right) if cls in (sx.BinOp, sx.BitOp) else cls(left, right)


@pytest.mark.parametrize(
    "table, operand, parse_text",
    [
        (ARITH_OPS, sx.Var, lambda text: rhs("x := " + text)),
        (FORMULA_OPS, lambda v: sx.Cmp("<", sx.Var(v), sx.IntLit(0)), parse_assertion_text),
    ],
    ids=["arith", "formula"],
)
def test_parentheses_are_minimal_for_every_operator_pair(table, operand, parse_text):
    ops = {lexeme: cls for level in table for lexeme, cls in level.items()}
    a, b, c = map(operand, "abc")
    for op1 in ops:
        for op2 in ops:
            flat = parse_text(f"{pretty_expr(a)} {op1} {pretty_expr(b)} {op2} {pretty_expr(c)}")
            groupings = (
                _binary(ops, op2, _binary(ops, op1, a, b), c),
                _binary(ops, op1, a, _binary(ops, op2, b, c)),
            )
            assert flat in groupings
            for tree in groupings:
                text = pretty_expr(tree)
                # parentheses exactly when the parser would group otherwise
                assert ("(" in text) == (tree != flat), (op1, op2, text)
                assert parse_text(text) == tree


def test_every_table_operator_lexes_as_one_op_token():
    for table, prefix in ((ARITH_OPS, ARITH_PREFIX), (FORMULA_OPS, FORMULA_PREFIX)):
        for lexeme in [*prefix, *(lexeme for level in table for lexeme in level)]:
            assert kinds_and_lexemes(lexeme) == [("op", lexeme), ("eoi", "")]


def test_pretty_program_layout():
    src = (
        "var n: u32;\n"
        "n := 10;\n"
        "while 1 <= n do\n"
        "  n := n - 1\n"
        "done\n"
    )
    assert pretty(parse_program(src)) == src


def test_pretty_if_layout():
    p = parse_program("if x < 0 then x := 0; skip else skip end")
    assert pretty(p) == (
        "if x < 0 then\n  x := 0;\n  skip\nelse\n  skip\nend\n"
    )


# ---------------------------------------------------------------------------
# Round-trip properties


@settings(max_examples=200)
@given(gen.aexprs(bits=True))
def test_roundtrip_aexpr(e):
    c = parse_program(f"x := {pretty_expr(e)}").body
    assert c.rhs == e


@settings(max_examples=150)
@given(gen.bexprs(bits=True))
def test_roundtrip_bexpr(b):
    c = parse_program(f"if {pretty_expr(b)} then skip else skip end").body
    assert c.cond == b


@settings(max_examples=150)
@given(gen.assertions())
def test_roundtrip_assertion(a):
    assert parse_assertion_text(pretty_expr(a)) == a


@settings(max_examples=200)
@given(gen.programs(bits=True, invariants=True))
def test_roundtrip_program(p):
    assert parse_program(pretty(p)) == p


def _left_chain(make, leaf, ops, n):
    e = leaf(0)
    for i in range(1, n):
        e = make(ops[i % len(ops)], e, leaf(i))
    return e


@pytest.mark.parametrize("kind", ["+-", "*", "bits", "&&", "||"])
def test_roundtrip_long_chains(kind):
    # the printer works from an explicit stack: 10^4-term chains print
    # without recursion, with no parentheses to exceed the nesting limit
    n, decls = 10**4, ()
    if kind in ("&&", "||"):
        cls = sx.And if kind == "&&" else sx.Or
        cond = _left_chain(
            lambda _, a, b: cls(a, b), lambda i: sx.Cmp("<", sx.Var("x"), sx.IntLit(i)), "_", n
        )
        c = sx.If(cond, sx.Skip(), sx.Skip())
    elif kind == "bits":
        decls = (("x", sx.Ty.U32),)
        c = sx.Assign("x", _left_chain(sx.BitOp, sx.IntLit, ["&", "|", "^", "<<", ">>"], n))
    elif kind == "*":
        c = sx.Assign("x", _left_chain(sx.BinOp, lambda i: sx.Var("y"), "*", n))
    else:
        c = sx.Assign("x", _left_chain(sx.BinOp, sx.IntLit, "+-", n))
    text = pretty(sx.Program(decls, c))
    assert "(" not in text
    p = parse_program(text)
    assert p.decls == decls and sx.equal(p.body, c)


def test_roundtrip_exercises_token_constructor():
    # Token is part of the public lexer contract; spot-check a field set.
    t = Token("ident", "x", 3, 7)
    assert t.pos == sx.SrcPos(3, 7) and t.describe() == "'x'"
    toks = lex(pretty(parse_program("x := 1 + 2 * y")))
    assert parse(toks).body == sx.Assign(
        "x", sx.BinOp("+", sx.IntLit(1), sx.BinOp("*", sx.IntLit(2), sx.Var("y")))
    )


def test_hex_literals():
    p = parse_program("x := 0xFF + 0x10; y := 0xFFFFFFFF")
    assert p.body == sx.Seq(
        sx.Assign("x", sx.BinOp("+", sx.IntLit(255), sx.IntLit(16))),
        sx.Assign("y", sx.IntLit(4294967295)),
    )
    # the printer stays decimal, so hex input still round-trips
    assert parse_program(pretty(p)) == p
    # a bad hex body falls back to "0" then a stray identifier
    with pytest.raises(ParseError):
        parse_program("x := 0xZZ")


# ---------------------------------------------------------------------------
# Sequences are parsed in a loop; nesting is limited


def test_long_sequence_parses_to_right_nested_chain():
    n = 2000
    c = body("x := x + 1;\n" * (n - 1) + "x := x + 1\n")
    stmt = sx.Assign("x", sx.BinOp("+", sx.Var("x"), sx.IntLit(1)))
    expected = stmt
    for _ in range(n - 1):
        expected = sx.Seq(stmt, expected)
    assert sx.equal(c, expected)
    # each Seq carries the position of its ';'
    assert (c.pos, c.second.pos) == (sx.SrcPos(1, 11), sx.SrcPos(2, 11))


def _parens(depth, inner="1"):
    return "(" * depth + inner + ")" * depth


@pytest.mark.parametrize(
    "template",
    [
        "x := {}",  # arithmetic parentheses
        "x := i32({})",  # a cast opens a level
        "if {} < 2 then skip else skip end",  # opens a level too
        "while ({}) < 2 do skip done",
    ],
)
def test_nesting_limit_in_expressions(template):
    statement = template.startswith(("if", "while"))
    levels = MAX_NESTING - template.count("(") - statement
    parse_program(template.format(_parens(levels)))
    src = template.format(_parens(levels + 1))
    with pytest.raises(NestingError) as ei:
        parse_program(src)
    # located at the parenthesis that opens level MAX_NESTING + 1
    opens = [col for col, ch in enumerate(src, start=1) if ch == "("]
    assert ei.value.pos == sx.SrcPos(1, opens[MAX_NESTING - statement])


def test_nesting_limit_in_conditions_and_assertions():
    b = _parens(MAX_NESTING - 1, "x < 1")
    parse_program(f"if {b} then skip else skip end")
    with pytest.raises(NestingError):
        parse_program(f"if ({b}) then skip else skip end")
    a = _parens(MAX_NESTING, "x < 1")
    assert parse_assertion_text(a) == sx.Cmp("<", sx.Var("x"), sx.IntLit(1))
    with pytest.raises(NestingError):
        parse_assertion_text(f"({a})")
    with pytest.raises(NestingError):
        parse_assertion_text("!" * (MAX_NESTING + 1) + "true")


def test_nesting_limit_counts_unary_operators_and_statements():
    e = rhs("x := " + "-~" * (MAX_NESTING // 2) + "y")
    depth = 0
    while not isinstance(e, sx.Var):
        e, depth = e.operand, depth + 1
    assert depth == MAX_NESTING
    with pytest.raises(NestingError):
        parse_program("x := -" + "-~" * (MAX_NESTING // 2) + "y")
    nested = "skip"
    for _ in range(MAX_NESTING):
        nested = f"while x < 1 do {nested} done"
    parse_program(nested)
    with pytest.raises(NestingError) as ei:
        parse_program(f"if true then {nested} else skip end")
    assert ei.value.pos == sx.SrcPos(1, 1 + len("if true then ") + 99 * len("while x < 1 do "))


def test_nesting_limit_is_restored_after_backtracking():
    # the comparison alternative fails inside its parentheses; the
    # formula alternative must start again from the same depth
    b = _parens(MAX_NESTING - 1, "x < 1 && y < 2")
    assert isinstance(parse_program(f"if {b} then skip else skip end").body.cond, sx.And)


def test_pretty_long_sequence():
    c = sx.Assign("x", sx.IntLit(1))
    for i in range(2, 10_001):
        c = sx.Seq(c, sx.Assign("x", sx.IntLit(i)))
    text = pretty(sx.program(c))
    assert text == "".join(f"x := {i};\n" for i in range(1, 10_000)) + "x := 10000\n"
