"""The one statement rewriter, ``Block.map`` with ``Stmt.map_blocks``,
and the passes built on it: inlining, ``@post`` inference, patch
splicing and bounded unrolling."""

import hashlib
from pathlib import Path

from repro.abstract import annotate_program
from repro.bmc import unroll_program
from repro.lang import (
    Assign,
    Block,
    BoolConst,
    Cmp,
    Const,
    If,
    Name,
    ParseError,
    Skip,
    While,
    parse_module,
    parse_program,
)
from repro.lang.procedures import inline_module
from repro.repair import Edit, apply_edits
from repro.suite import BENCHMARKS, DIAGNOSTICS, load_source

from .strategies import random_program
from .test_procedures import LIBRARY_MODELS, SOURCES

X0 = Assign("x", Const(0))
X1 = Assign("x", Const(1))
LOOP = While(Cmp("<", Name("x"), Const(3)), Block((X0,)), 1)
BRANCH = If(BoolConst(True), Block((X0,)), Block((LOOP,)))


def _zero_to_one(stmt):
    if stmt == X0:
        return X1
    return stmt.map_blocks(lambda b: b.map(_zero_to_one))


class TestBlockMap:
    def test_unchanged_block_is_returned_itself(self):
        block = Block((X0, BRANCH, Skip()))
        assert block.map(lambda stmt: stmt) is block
        assert block.map(lambda stmt: [stmt]) is block

    def test_a_sequence_replaces_one_statement(self):
        block = Block((X0, Skip()))
        mapped = block.map(lambda s: [s, s] if s is X0 else [])
        assert mapped.body == (X0, X0)

    def test_leaves_map_to_themselves(self):
        for leaf in (X0, Skip()):
            assert leaf.map_blocks(lambda b: Block(())) is leaf

    def test_a_block_statement_is_mapped_by_fn(self):
        empty = Block(())
        assert Block((X0,)).map_blocks(lambda b: empty) is empty

    def test_only_the_path_to_a_change_is_rebuilt(self):
        mapped = BRANCH.map_blocks(lambda b: b.map(_zero_to_one))
        assert mapped.then_branch.body == (X1,)
        assert mapped.else_branch.body[0].body.body == (X1,)
        untouched = If(BoolConst(True), Block((X1,)), Block((Skip(),)))
        assert untouched.map_blocks(
            lambda b: b.map(_zero_to_one)) is untouched
        half = If(BoolConst(True), Block((X0,)), Block((Skip(),)))
        rebuilt = half.map_blocks(lambda b: b.map(_zero_to_one))
        assert rebuilt.else_branch is half.else_branch
        assert rebuilt.span is half.span

    def test_a_loop_keeps_its_label_post_and_span(self):
        loop = While(LOOP.cond, Block((X0,)), 7, BoolConst(True))
        mapped = loop.map_blocks(lambda b: b.map(_zero_to_one))
        assert (mapped.label, mapped.post, mapped.body.body) \
            == (7, BoolConst(True), (X1,))


class TestPassesShareUnchangedStatements:
    def test_a_program_without_calls_is_not_rebuilt(self):
        module = parse_module(load_source(BENCHMARKS[0]))
        assert inline_module(module) is module.program

    def test_a_post_edit_rebuilds_only_its_loop(self):
        program = parse_program(load_source(BENCHMARKS[0]))
        loop = program.loops()[-1]
        edit = Edit("post", BoolConst(True), label=loop.label)
        patched = apply_edits(program, [edit])
        assert patched.source is None
        kept = [new is old for new, old in
                zip(patched.body.body, program.body.body)]
        assert kept.count(False) == 1

    def test_unrolling_a_loop_free_program_keeps_its_body(self):
        program = parse_program(load_source(DIAGNOSTICS[0]))
        assert not program.loops()
        unrolled, _ = unroll_program(program, 2)
        assert unrolled.body is program.body


#: sha256 over ``repr`` of each input's parse, annotate and unrolling
#: (bounds 0-3), or of its parse error, in the order of ``_inputs``;
#: computed on the code before the passes shared ``Block.map``.
REWRITES_DIGEST = (
    "3c11d6c23dd656536e3b96ecaf85b3797f27368560bdff1d69a388d10862fda3"
)


def _inputs():
    sources = [load_source(bench) for bench in
               sorted(BENCHMARKS + DIAGNOSTICS, key=lambda b: b.name)]
    examples = Path(__file__).resolve().parents[1] / "examples"
    sources.append((examples / "foo.err").read_text())
    sources.append(LIBRARY_MODELS)
    sources.extend(SOURCES)
    sources.extend(random_program(seed) for seed in range(40))
    return sources


def test_rewrites_are_pinned():
    digest = hashlib.sha256()
    inputs = _inputs()
    assert len(inputs) == 66
    for source in inputs:
        try:
            program = parse_program(source)
        except ParseError as error:
            text = repr(str(error))
        else:
            annotated = annotate_program(program)
            text = "\n".join(
                [repr(program), repr(annotated)]
                + [repr(unroll_program(annotated, bound))
                   for bound in range(4)])
        digest.update(text.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == REWRITES_DIGEST
