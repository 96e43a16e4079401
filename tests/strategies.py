"""Shared hypothesis strategies for AST generation.

Commands are generated with right-nested Seq chains only, matching the
parser's output shape, so pretty/parse round-trips can compare ASTs
structurally.  Integer literals are nonnegative (negative constants are
Neg nodes), mirroring the lexer.
"""

from hypothesis import strategies as st

from cimp import syntax as sx

NAMES = st.sampled_from(["a", "b", "c", "x", "y", "z", "tmp", "n0", "_k"])

int_lits = st.integers(min_value=0, max_value=1 << 34).map(sx.IntLit)


def aexprs(max_depth: int = 4, bits: bool = False):
    base = st.one_of(int_lits, NAMES.map(sx.Var))

    def extend(children):
        forms = [
            st.builds(sx.Neg, children),
            st.builds(
                sx.BinOp, st.sampled_from(["+", "-", "*"]), children, children
            ),
        ]
        if bits:
            forms.append(
                st.builds(
                    sx.BitOp,
                    st.sampled_from(["&", "|", "^", "<<", ">>"]),
                    children,
                    children,
                )
            )
            forms.append(st.builds(sx.BitNot, children))
            forms.append(
                st.builds(
                    sx.Cast, st.sampled_from([sx.Ty.I32, sx.Ty.U32]), children
                )
            )
        return st.one_of(forms)

    return st.recursive(base, extend, max_leaves=2**max_depth)


def bexprs(max_depth: int = 3, bits: bool = False):
    arith = aexprs(max_depth=2, bits=bits)
    base = st.one_of(
        st.booleans().map(sx.BoolLit),
        st.builds(sx.Cmp, st.sampled_from(["=", "<=", "<"]), arith, arith),
    )

    def extend(children):
        return st.one_of(
            st.builds(sx.Not, children),
            st.builds(sx.And, children, children),
            st.builds(sx.Or, children, children),
        )

    return st.recursive(base, extend, max_leaves=2**max_depth)


def assertions(max_depth: int = 3):
    arith = aexprs(max_depth=2)
    base = st.one_of(
        st.just(sx.BoolLit(True)),
        st.just(sx.BoolLit(False)),
        st.builds(sx.Cmp, st.sampled_from(["=", "<=", "<"]), arith, arith),
    )

    def extend(children):
        return st.one_of(
            st.builds(sx.Not, children),
            st.builds(sx.And, children, children),
            st.builds(sx.Or, children, children),
            st.builds(sx.Implies, children, children),
        )

    return st.recursive(base, extend, max_leaves=2**max_depth)


def _flatten_seq(c):
    if isinstance(c, sx.Seq):
        return _flatten_seq(c.first) + _flatten_seq(c.second)
    return [c]


def _seq_right(coms):
    """Fold commands into a right-nested Seq chain (the parser's shape)."""
    atoms = [a for c in coms for a in _flatten_seq(c)]
    out = atoms[-1]
    for c in reversed(atoms[:-1]):
        out = sx.Seq(c, out)
    return out


def coms(max_depth: int = 3, bits: bool = False, invariants: bool = False):
    arith = aexprs(max_depth=3, bits=bits)
    cond = bexprs(max_depth=2, bits=bits)
    base = st.one_of(
        st.just(sx.Skip()),
        st.builds(sx.Assign, NAMES, arith),
    )

    def extend(children):
        inv = assertions(max_depth=2) if invariants else st.none()
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(_seq_right),
            st.builds(sx.If, cond, children, children),
            st.builds(sx.While, cond, st.none() | inv, children),
        )

    return st.recursive(base, extend, max_leaves=2**max_depth)


def programs(bits: bool = False, invariants: bool = False):
    return coms(bits=bits, invariants=invariants).map(sx.program)


def stores():
    from cimp.semantics import Store

    return st.dictionaries(
        NAMES, st.integers(min_value=-50, max_value=50), max_size=4
    ).map(Store)


# ---------------------------------------------------------------------------
# Typed generation: expressions and programs that are well typed by
# construction under a drawn i32/u32 environment.

WORDS = st.integers(min_value=0, max_value=(1 << 32) - 1)

TYPED_POOL = ["a", "b", "c", "x", "y"]

TYS = st.sampled_from([sx.Ty.I32, sx.Ty.U32])


def word_stores():
    from cimp.semantics import Store

    return st.dictionaries(NAMES, WORDS, max_size=4).map(Store)


def typed_aexprs(env, t, max_depth: int = 3):
    """Expressions of type t under env, casts bridging from the other type."""
    other = sx.Ty.U32 if t is sx.Ty.I32 else sx.Ty.I32
    vars_t = sorted(n for n, ty in env.items() if ty is t)
    vars_other = sorted(n for n, ty in env.items() if ty is other)

    lits = st.integers(min_value=0, max_value=(1 << 32) - 1).map(sx.IntLit)
    other_leaf = lits if not vars_other else st.one_of(
        lits, st.sampled_from(vars_other).map(sx.Var)
    )
    base_forms = [lits, other_leaf.map(lambda e: sx.Cast(t, e))]
    if vars_t:
        base_forms.append(st.sampled_from(vars_t).map(sx.Var))
    base = st.one_of(base_forms)

    def extend(children):
        forms = [
            st.builds(sx.Neg, children),
            st.builds(
                sx.BinOp, st.sampled_from(["+", "-", "*"]), children, children
            ),
            children.map(lambda e: sx.Cast(t, sx.Cast(other, e))),
        ]
        if t is sx.Ty.U32:
            forms.append(
                st.builds(
                    sx.BitOp,
                    st.sampled_from(["&", "|", "^", "<<", ">>"]),
                    children,
                    children,
                )
            )
            forms.append(st.builds(sx.BitNot, children))
        return st.one_of(forms)

    return st.recursive(base, extend, max_leaves=2**max_depth)


def typed_bexprs(env, max_depth: int = 2):
    def cmp_of(t):
        arith = typed_aexprs(env, t, max_depth=2)
        return st.builds(sx.Cmp, st.sampled_from(["=", "<=", "<"]), arith, arith)

    base = st.one_of(
        st.booleans().map(sx.BoolLit),
        TYS.flatmap(cmp_of),
    )

    def extend(children):
        return st.one_of(
            st.builds(sx.Not, children),
            st.builds(sx.And, children, children),
            st.builds(sx.Or, children, children),
        )

    return st.recursive(base, extend, max_leaves=2**max_depth)


def typed_coms(env, max_depth: int = 3):
    names = sorted(env)
    assign = st.sampled_from(names).flatmap(
        lambda n: st.builds(sx.Assign, st.just(n), typed_aexprs(env, env[n]))
    )
    cond = typed_bexprs(env)
    base = st.one_of(st.just(sx.Skip()), assign)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(_seq_right),
            st.builds(sx.If, cond, children, children),
            st.builds(sx.While, cond, st.none(), children),
        )

    return st.recursive(base, extend, max_leaves=2**max_depth)


@st.composite
def typed_programs(draw, max_depth: int = 3):
    names = draw(
        st.lists(st.sampled_from(TYPED_POOL), min_size=1, max_size=4, unique=True)
    )
    env = {n: draw(TYS) for n in names}
    body = draw(typed_coms(env, max_depth=max_depth))
    return sx.Program(tuple((n, env[n]) for n in names), body)
