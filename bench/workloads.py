"""The four workloads: imp source text and `cimp` commands made from a seed.

`build(name, seed, workdir)` writes the inputs under workdir and returns
one round of commands, each with what a correct result must satisfy.
The same seed always gives the same files and commands.  Work per round
is fixed by the constants below; the seed changes values and program
shapes, not sizes, so that runs with different seeds measure comparable
work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from lang import MASK, Diverged, Prog, evaluate, program_text

WORKLOADS = ("run-loops", "compile-large", "verify", "fuzz")

# run-loops: loop iterations of each program
TRI_N, FIB_N, GCD_M, MUL_X, MUL_Y = 250, 700, 501, 30, 36
LCG_N, XORSHIFT_N, COUNTDOWN_N = 150, 300, 500
# compile-large: program sizes
SEQ_LEN, CHAIN_STMTS, CHAIN_TERMS, TREE_DEPTH, NEST_BLOCKS = 110, 6, 60, 8, 10
PROGRAMS_PER_SHAPE = 2
# verify: enumeration box and sequential-if chain lengths
BOUND, CHAIN_IFS = 8, (7, 8)
# fuzz: chunks per round and cases per chunk
FUZZ_CHUNKS, FUZZ_UNTYPED, FUZZ_TYPED = 16, 32, 32


@dataclass
class Expect:
    store: dict = field(default_factory=dict)
    typed: bool = False
    unfoldings: int = 0
    decls: tuple = ()
    wrong: bool = False
    refutes: object = None  # wrong annotations: store -> falsifies an obligation
    names: frozenset = frozenset()


@dataclass
class Cmd:
    kind: str  # run | compile | typecheck | vc | fuzz
    file: str
    opts: dict
    expect: Expect


def build(name: str, seed: int, workdir: Path) -> list[Cmd]:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    return {"run-loops": _run_loops, "compile-large": _compile_large,
            "verify": _verify, "fuzz": _fuzz}[name](rng, workdir)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# run-loops: hand-written loops, expected stores computed in plain Python


def _loop_programs(rng: random.Random) -> list[tuple[str, str, bool, dict, int]]:
    """(name, source, typed, expected store, loop unfoldings)."""
    out = []

    s0 = rng.randint(0, 1000)
    out.append(("triangular", f"""\
s := {s0};
i := 0;
while i < {TRI_N} do
  i := i + 1;
  s := s + i
done
""", False, {"s": s0 + TRI_N * (TRI_N + 1) // 2, "i": TRI_N}, TRI_N))

    a0, b0 = rng.randint(0, 9), rng.randint(1, 9)
    a, b, t = a0, b0, 0
    for _ in range(FIB_N):
        t = a + b
        a, b = b, t
    out.append(("fibonacci", f"""\
a := {a0};
b := {b0};
i := 0;
while i < {FIB_N} do
  t := a + b;
  a := b;
  b := t;
  i := i + 1
done
""", False, {"a": a, "b": b, "t": t, "i": FIB_N}, FIB_N))

    g = rng.randint(3, 97)
    a, b, steps = g * GCD_M, g * (GCD_M - 1), 0
    while a != b:
        if a <= b:
            b -= a
        else:
            a -= b
        steps += 1
    out.append(("gcd", f"""\
a := {g * GCD_M};
b := {g * (GCD_M - 1)};
while !(a = b) do
  if a <= b then b := b - a else a := a - b end
done
""", False, {"a": a, "b": b}, steps))

    p0 = rng.randint(0, 500)
    out.append(("multiply", f"""\
x := {MUL_X};
y := {MUL_Y};
p := {p0};
i := 0;
while i < x do
  j := 0;
  while j < y do
    p := p + 1;
    j := j + 1
  done;
  i := i + 1
done
""", False, {"x": MUL_X, "y": MUL_Y, "p": p0 + MUL_X * MUL_Y, "i": MUL_X, "j": MUL_Y},
        MUL_X + MUL_X * MUL_Y))

    seed = rng.getrandbits(32)
    s = seed
    for _ in range(LCG_N):
        s = (s * 1664525 + 1013904223) & MASK
    out.append(("lcg", f"""\
var s: u32;
var i: i32;
s := {seed};
i := 0;
while i < {LCG_N} do
  s := s * 1664525 + 1013904223;
  i := i + 1
done
""", True, {"s": s, "i": LCG_N}, LCG_N))

    x0 = rng.getrandbits(32) | 1
    x, acc = x0, 0
    for _ in range(XORSHIFT_N):
        x ^= (x << 13) & MASK
        x ^= x >> 17
        x ^= (x << 5) & MASK
        acc = (acc + (x & 255)) & MASK
    out.append(("xorshift", f"""\
var x: u32;
var acc: u32;
var i: i32;
x := {x0};
i := 0;
while i < {XORSHIFT_N} do
  x := x ^ (x << 13);
  x := x ^ (x >> 17);
  x := x ^ (x << 5);
  acc := acc + (x & 255);
  i := i + 1
done
""", True, {"x": x, "acc": acc, "i": XORSHIFT_N}, XORSHIFT_N))

    s0 = rng.randint(0, 1000)
    out.append(("countdown", f"""\
var k: i32;
var s: i32;
k := 0;
s := {s0};
while -{COUNTDOWN_N} < k do
  s := s + k;
  k := k - 1
done
""", True, {"k": -COUNTDOWN_N, "s": s0 - COUNTDOWN_N * (COUNTDOWN_N - 1) // 2},
        COUNTDOWN_N))
    return out


def _run_loops(rng, workdir) -> list[Cmd]:
    cmds = []
    for name, text, typed, store, unfoldings in _loop_programs(rng):
        path = _write(workdir, name + ".imp", text)
        engines = ("bigstep", "mips") if typed else ("bigstep", "smallstep", "stackvm", "mips")
        expect = Expect(store=store, typed=typed, unfoldings=unfoldings)
        for opt in (0, 2):
            for engine in engines:
                cmds.append(Cmd("run", path, {"engine": engine, "opt": opt}, expect))
    return cmds


# ---------------------------------------------------------------------------
# compile-large: generated programs, expected stores from lang.evaluate

POOL = ("a", "b", "c", "d", "e", "f")
_BIT_OPS = ("&", "|", "^", "<<", ">>")


class _Gen:
    """Seeded programs in the benchmark's own trees.

    Typed programs follow cimp's typing rules: bit operators on u32
    only, both sides of + - * and of a comparison of one type, casts the
    only bridge.  Untyped programs multiply by small literals only.
    """

    def __init__(self, rng: random.Random, typed: bool):
        self.rng, self.typed = rng, typed
        self.env: dict[str, str] = {}
        if typed:
            tys = ["u32"] * 3 + ["i32"] * 3
            rng.shuffle(tys)
            self.env = dict(zip(POOL, tys))
        self.readable = list(POOL)
        self.loops = 0

    def ty(self) -> str | None:
        return self.rng.choice(("i32", "u32")) if self.typed else None

    def lit(self):
        r = self.rng.random()
        if self.typed and r < 0.15:
            return ("lit", self.rng.getrandbits(32))
        return ("lit", self.rng.randint(0, 99) if r < 0.4 else self.rng.randint(0, 9))

    def var(self, ty, names=None):
        names = names or self.readable
        if self.typed:
            names = [n for n in names if self.env[n] == ty]
        return ("var", self.rng.choice(names))

    def expr(self, depth: int, ty, names=None):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return self.var(ty, names) if rng.random() < 0.6 else self.lit()
        roll = rng.random()
        if roll < 0.08:
            return ("neg", self.expr(depth - 1, ty, names))
        if self.typed and roll < 0.16:
            other = "i32" if ty == "u32" else "u32"
            return ("cast", ty, self.expr(depth - 1, other, names))
        if ty == "u32" and roll < 0.22:
            return ("~", self.expr(depth - 1, ty, names))
        if ty == "u32" and roll < 0.4:
            op = rng.choice(_BIT_OPS)
            return (op, self.expr(depth - 1, ty, names), self.expr(depth - 1, ty, names))
        op = rng.choice("+-*" if self.typed else "++--*")
        left = self.expr(depth - 1, ty, names)
        right = self.expr(depth - 1, ty, names) if self.typed or op != "*" else (
            "lit", rng.randint(0, 3))
        return (op, left, right)

    def cond(self, depth: int):
        roll = self.rng.random()
        if depth <= 0 or roll < 0.6:
            ty = self.ty()
            op = self.rng.choice(("=", "<=", "<"))
            return ("cmp", op, self.var(ty), self.expr(1, ty), ty)
        if roll < 0.7:
            return ("!", self.cond(depth - 1))
        return ("&&" if roll < 0.85 else "||", self.cond(depth - 1), self.cond(depth - 1))

    def assign(self, depth: int = 2):
        target = self.rng.choice(POOL)
        return ("assign", target, self.expr(depth, self.env.get(target)))

    def loop(self, depth: int):
        counter = f"n{self.loops}"
        self.loops += 1
        ty = self.ty()
        if self.typed:
            self.env[counter] = ty
        bound = self.rng.randint(1, 3)
        self.readable.append(counter)
        body = self.block(depth - 1)
        self.readable.pop()
        step = ("assign", counter, ("+", ("var", counter), ("lit", 1)))
        test = ("cmp", "<", ("var", counter), ("lit", bound), ty)
        return ("seq", [("assign", counter, ("lit", 0)),
                        ("while", test, ("seq", [body, step]))])

    def block(self, depth: int):
        """A fixed shape, so that program size does not depend on the seed:
        two assignments around a loop (odd depth) or a conditional (even)."""
        if depth <= 0:
            return ("seq", [self.assign(), self.assign()])
        inner = self.loop(depth) if depth % 2 else (
            "if", self.cond(1), self.block(depth - 1), self.block(depth - 1))
        return ("seq", [self.assign(), inner, self.assign()])

    def decls(self) -> tuple:
        return tuple(sorted(self.env.items())) if self.typed else ()

    # the three shapes

    def seq_shape(self):
        stmts = []
        for _ in range(SEQ_LEN):
            if self.rng.random() < 0.15:
                stmts.append(("if", self.cond(1), self.assign(), self.assign()))
            else:
                stmts.append(self.assign())
        return ("seq", stmts)

    def chain_shape(self):
        stmts = [("assign", v, self.lit()) for v in POOL]
        outputs = [f"x{k}" for k in range(CHAIN_STMTS + 1)]
        for target in outputs:
            if self.typed:
                self.env[target] = self.ty()
        for target in outputs[:-1]:
            ty = self.env.get(target)
            e = self.expr(1, ty, POOL)
            for _ in range(CHAIN_TERMS - 1):
                e = (self.rng.choice("+-"), e, self.expr(1, ty, POOL))
            stmts.append(("assign", target, e))
        stmts.append(("assign", outputs[-1], self.tree(TREE_DEPTH, self.env.get(outputs[-1]))))
        return ("seq", stmts)

    def tree(self, depth: int, ty):
        if depth == 0:
            return self.var(ty, POOL) if self.rng.random() < 0.6 else self.lit()
        return (self.rng.choice("+-"), self.tree(depth - 1, ty), self.tree(depth - 1, ty))

    def nested_shape(self):
        stmts = [("assign", v, self.lit()) for v in POOL]
        stmts += [self.block(3) for _ in range(NEST_BLOCKS)]
        return ("seq", stmts)


def generate(rng: random.Random, shape: str, typed: bool) -> tuple[Prog, dict]:
    """A program of the shape and its expected final store.  Untyped
    programs are drawn again until every assigned and compared value fits
    in 32 signed bits, where a 32-bit target and the unbounded semantics
    agree."""
    while True:
        g = _Gen(rng, typed)
        body = getattr(g, shape + "_shape")()
        prog = Prog(g.decls(), body)
        try:
            return prog, evaluate(prog, limit=None if typed else 1 << 31)
        except Diverged:
            continue


def _compile_large(rng, workdir) -> list[Cmd]:
    cmds = []
    for shape in ("seq", "chain", "nested"):
        for typed in (False, True):
            for k in range(PROGRAMS_PER_SHAPE):
                prog, store = generate(rng, shape, typed)
                path = _write(workdir, f"{shape}-{'typed' if typed else 'untyped'}-{k}.imp",
                              program_text(prog))
                expect = Expect(store=store, typed=typed, decls=prog.decls)
                backends = ("naive", "su") if typed else ("stack", "naive", "su")
                for backend in backends:
                    for opt in (0, 2):
                        cmds.append(Cmd("compile", path, {"backend": backend, "opt": opt}, expect))
                if typed:
                    cmds.append(Cmd("typecheck", path, {}, expect))
    return cmds


# ---------------------------------------------------------------------------
# verify: annotated loops with known answers, and sequential-if chains


def _obligations(pre, init, inv, guard, body, post):
    """store -> True when it falsifies one of the loop's obligations:
    pre -> inv after init; inv and guard -> inv after body; inv and not
    guard -> post."""
    def refutes(store: dict) -> bool:
        s = {k: store.get(k, 0) for k in "xyisbpe"}
        return ((pre(s) and not inv(init(s)))
                or (inv(s) and guard(s) and not inv(body(s)))
                or (inv(s) and not guard(s) and not post(s)))
    return refutes


def _count(rng: random.Random) -> list[tuple]:
    n = rng.randint(3, BOUND - 1)
    loop = f"x := 0;\nwhile x < {n} invariant {{ {{inv}} }} do\n  x := x + 1\ndone\n"
    wrong = _obligations(lambda s: True, lambda s: {**s, "x": 0},
                         lambda s: 0 <= s["x"] < n, lambda s: s["x"] < n,
                         lambda s: {**s, "x": s["x"] + 1}, lambda s: s["x"] == n)
    return [("count", loop.replace("{inv}", f"0 <= x && x <= {n}"), "", f"x = {n}", None, "x"),
            ("count-wrong", loop.replace("{inv}", f"0 <= x && x < {n}"), "", f"x = {n}", wrong,
             "x")]


def _countdown(rng: random.Random) -> list[tuple]:
    n = rng.randint(3, BOUND - 1)
    loop = f"x := {n};\nwhile 0 < x invariant {{ {{inv}} }} do\n  x := x - 1\ndone\n"
    wrong = _obligations(lambda s: True, lambda s: {**s, "x": n}, lambda s: 0 < s["x"],
                         lambda s: 0 < s["x"], lambda s: {**s, "x": s["x"] - 1},
                         lambda s: s["x"] == 0)
    return [("countdown", loop.replace("{inv}", "0 <= x"), "", "x = 0", None, "x"),
            ("countdown-wrong", loop.replace("{inv}", "0 < x"), "", "x = 0", wrong, "x")]


def _transfer(rng: random.Random) -> list[tuple]:
    c = rng.randint(3, BOUND - 1)
    loop = "while 0 < x invariant { {inv} } do\n  x := x - 1;\n  y := y + 1\ndone\n"
    pre = f"0 <= x && x + y = {c}"
    wrong = _obligations(lambda s: 0 <= s["x"] and s["x"] + s["y"] == c, lambda s: s,
                         lambda s: 0 <= s["x"] and s["x"] + s["y"] == c + 1,
                         lambda s: 0 < s["x"],
                         lambda s: {**s, "x": s["x"] - 1, "y": s["y"] + 1},
                         lambda s: s["y"] == c)
    return [("transfer", loop.replace("{inv}", pre), pre, f"y = {c}", None, "xy"),
            ("transfer-wrong", loop.replace("{inv}", f"0 <= x && x + y = {c + 1}"), pre,
             f"y = {c}", wrong, "xy")]


def _sum(rng: random.Random) -> list[tuple]:
    n = rng.randint(3, 6)
    loop = (f"s := 0;\ni := 0;\nwhile i < {n} invariant {{ 0 <= i && i <= {n} && {{inv}} }} do\n"
            "  i := i + 1;\n  s := s + i\ndone\n")
    post = f"s + s = {n * n + n}"
    wrong = _obligations(lambda s: True, lambda s: {**s, "s": 0, "i": 0},
                         lambda s: 0 <= s["i"] <= n and 2 * s["s"] == s["i"] * s["i"],
                         lambda s: s["i"] < n,
                         lambda s: {**s, "i": s["i"] + 1, "s": s["s"] + s["i"] + 1},
                         lambda s: 2 * s["s"] == n * n + n)
    return [("sum", loop.replace("{inv}", "s + s = i * i + i"), "", post, None, "is"),
            ("sum-wrong", loop.replace("{inv}", "s + s = i * i"), "", post, wrong, "is")]


def _scale(rng: random.Random) -> list[tuple]:
    k = rng.randint(2, 5)
    return [("scale", f"""\
p := 0;
i := 0;
while i < b invariant {{ i <= b && p = i * {k} }} do
  p := p + {k};
  i := i + 1
done
""", "0 <= b", f"p = b * {k}", None, "bip")]


def _parity(rng: random.Random) -> list[tuple]:
    n = rng.randint(3, BOUND - 1)
    return [("parity", f"""\
i := 0;
e := 1;
while i < {n} invariant {{ 0 <= i && i <= {n} && (e = 0 || e = 1) }} do
  if e = 1 then e := 0 else e := 1 end;
  i := i + 1
done
""", "", f"i = {n} && (e = 0 || e = 1)", None, "ie")]


def _chains(rng: random.Random) -> list[tuple]:
    out = []
    for k in CHAIN_IFS:
        ifs = [f"if x <= {rng.randint(-BOUND, BOUND)} then\n  x := x + 1;\n  y := y + 1\n"
               "else\n  x := x - 1;\n  y := y + 2\nend" for _ in range(k)]
        out.append((f"chain{k}", ";\n".join(ifs) + "\n", "y = 0", f"{k} <= y && y <= {2 * k}",
                    None, "xy"))
    return out


def _triples(rng: random.Random) -> list[tuple]:
    """(name, source, pre, post, refutes or None, variables)."""
    makers = (_count, _countdown, _transfer, _sum, _scale, _parity, _chains)
    return [t for make in makers for t in make(rng)]


def _verify(rng, workdir) -> list[Cmd]:
    cmds = []
    for name, text, pre, post, refutes, names in _triples(rng):
        path = _write(workdir, name + ".imp", text)
        expect = Expect(wrong=refutes is not None, refutes=refutes, names=frozenset(names))
        opts = {"pre": pre, "post": post}
        cmds.append(Cmd("vc", path, {**opts, "bound": BOUND}, expect))
        cmds.append(Cmd("vc", path, {**opts, "smt2": str(workdir / ("smt-" + name))}, expect))
    return cmds


# ---------------------------------------------------------------------------
# fuzz: seeded chunks with pinned engine lists


def _fuzz(rng, workdir) -> list[Cmd]:
    cmds = []
    for j in range(FUZZ_CHUNKS):
        for typed, count, engines in ((False, FUZZ_UNTYPED, "bigstep,smallstep,stackvm"),
                                      (True, FUZZ_TYPED, "bigstep,mips")):
            opts = {"seed": rng.getrandbits(32), "count": count, "typed": typed,
                    "engines": engines}
            cmds.append(Cmd("fuzz", "", opts, Expect()))
    return cmds
