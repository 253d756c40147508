"""Recursive-descent parser for the source language.

Grammar::

    program   := "program" IDENT "(" params? ")" "{" stmt* "}"
    params    := param ("," param)*
    param     := "unsigned"? IDENT
    stmt      := "var" decls ";"
               | "skip" ";"
               | IDENT "=" expr ";"
               | "havoc" IDENT ["@assume" "(" pred ")"] ";"
               | "if" "(" pred ")" block ["else" block]
               | "while" "(" pred ")" block ["@post" "(" pred ")"]
               | "assert" "(" pred ")" ";"
    decls     := IDENT ["=" expr] ("," IDENT ["=" expr])*
    block     := "{" stmt* "}"
    pred      := orp ; orp := andp ("||" andp)* ; andp := notp ("&&" notp)*
    notp      := "!" notp | "(" pred ")" | cmp | "true" | "false"
    cmp       := expr ("<"|">"|"<="|">="|"=="|"!=") expr
    expr      := term (("+"|"-") term)* ; term := factor ("*" factor)*
    factor    := INT | IDENT | "-" factor | "(" expr ")"

An IDENT is a letter or ``_``, then letters, digits, ``_`` and ``$``
(inlined variables are ``name$procN``).  The program must end with
exactly one ``assert``, mirroring the paper's ``check(p)``, and a
``proc`` body has none.  Variables must be declared (``var``) or be
parameters; loops are labeled in source order starting from 1.
"""

from __future__ import annotations

from .ast import (
    Assert,
    Assign,
    BinOp,
    Block,
    BoolConst,
    BoolOp,
    Cmp,
    Const,
    Expr,
    Havoc,
    If,
    Name,
    NotPred,
    Param,
    Pred,
    Program,
    Skip,
    Stmt,
    While,
)
from .diagnostics import ParseError, Span
from .lexer import Token, TokenKind, tokenize

_CMP_OPS = {"<", ">", "<=", ">=", "==", "!="}


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0
        self.loop_counter = 0
        self.declared: set[str] = set()
        self.params: list[Param] = []
        self.locals: list[str] = []
        self.prelude: list[Stmt] = []  # initializers from var decls

    # token plumbing -------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def at(self, kind: TokenKind, text: str | None = None) -> bool:
        token = self.peek()
        return token.kind is kind and (text is None or token.text == text)

    def accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, text: str | None = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind.name.lower()
            raise ParseError(
                f"expected {want!r}, found {token.text or 'end of input'!r}",
                token.span, self.source,
            )
        return self.advance()

    def error(self, message: str, span: Span) -> ParseError:
        return ParseError(message, span, self.source)

    # modules ----------------------------------------------------------------
    def module(self) -> "Module":
        from .procedures import Module, Proc

        procs: list[Proc] = []
        while self.at(TokenKind.KEYWORD, "proc"):
            procs.append(self.proc())
        program = self.program()
        return Module(tuple(procs), program)

    def proc(self) -> "Proc":
        from .procedures import Proc

        start = self.expect(TokenKind.KEYWORD, "proc").span
        name = self.expect(TokenKind.IDENT).text
        self.expect(TokenKind.OP, "(")
        params: list[str] = []
        if not self.at(TokenKind.OP, ")"):
            params.append(self.expect(TokenKind.IDENT).text)
            while self.accept(TokenKind.OP, ","):
                params.append(self.expect(TokenKind.IDENT).text)
        self.expect(TokenKind.OP, ")")

        # procedures get their own scope
        saved_declared, saved_locals = self.declared, self.locals
        self.declared = set(params)
        self.locals = []
        self.expect(TokenKind.OP, "{")
        body: list[Stmt] = []
        while not self.at(TokenKind.KEYWORD, "return"):
            if self.at(TokenKind.OP, "}") or self.at(TokenKind.EOF):
                raise self.error(
                    "procedure must end with a return statement",
                    self.peek().span,
                )
            body.extend(self.statement())
        self.reject_asserts(body)
        self.expect(TokenKind.KEYWORD, "return")
        result = self.expr()
        self.expect(TokenKind.OP, ";")
        end = self.expect(TokenKind.OP, "}").span
        proc_locals = tuple(self.locals)
        self.declared, self.locals = saved_declared, saved_locals
        return Proc(
            name=name,
            params=tuple(params),
            locals=proc_locals,
            body=Block(tuple(body), start.merge(end)),
            result=result,
            span=start.merge(end),
        )

    # program --------------------------------------------------------------
    def program(self) -> Program:
        start = self.expect(TokenKind.KEYWORD, "program").span
        name = self.expect(TokenKind.IDENT).text
        self.expect(TokenKind.OP, "(")
        if not self.at(TokenKind.OP, ")"):
            self.params.append(self.param())
            while self.accept(TokenKind.OP, ","):
                self.params.append(self.param())
        self.expect(TokenKind.OP, ")")
        self.declared = {p.name for p in self.params}
        body_block = self.block()
        end = self.expect(TokenKind.EOF).span

        statements = list(body_block.body)
        if not statements or not isinstance(statements[-1], Assert):
            raise self.error(
                "program must end with a single assert(...) — the paper's "
                "check(p)",
                body_block.span,
            )
        check = statements.pop()
        self.reject_asserts(statements)
        assert isinstance(check, Assert)
        return Program(
            name=name,
            params=tuple(self.params),
            locals=tuple(self.locals),
            body=Block(tuple(statements), body_block.span),
            check=check,
            span=start.merge(end),
            source=self.source,
        )

    def param(self) -> Param:
        unsigned = self.accept(TokenKind.KEYWORD, "unsigned") is not None
        token = self.expect(TokenKind.IDENT)
        if token.text in {p.name for p in self.params}:
            raise self.error(f"duplicate parameter {token.text!r}", token.span)
        return Param(token.text, unsigned, token.span)

    # statements -----------------------------------------------------------
    def reject_asserts(self, statements: list[Stmt]) -> None:
        for stmt in statements:
            for sub in stmt.walk():
                if isinstance(sub, Assert):
                    raise self.error(
                        "assert(...) is only allowed as the program's "
                        "final statement",
                        sub.span,
                    )

    def block(self) -> Block:
        start = self.expect(TokenKind.OP, "{").span
        body: list[Stmt] = []
        while not self.at(TokenKind.OP, "}"):
            if self.at(TokenKind.EOF):
                raise self.error("unterminated block", self.peek().span)
            body.extend(self.statement())
        end = self.expect(TokenKind.OP, "}").span
        return Block(tuple(body), start.merge(end))

    def statement(self) -> list[Stmt]:
        token = self.peek()
        if token.kind is TokenKind.KEYWORD:
            if token.text == "var":
                return self.var_decl()
            if token.text == "skip":
                self.advance()
                self.expect(TokenKind.OP, ";")
                return [Skip(token.span)]
            if token.text == "havoc":
                return [self.havoc()]
            if token.text == "if":
                return [self.if_stmt()]
            if token.text == "while":
                return [self.while_stmt()]
            if token.text == "assert":
                return [self.assert_stmt()]
            raise self.error(f"unexpected keyword {token.text!r}", token.span)
        if token.kind is TokenKind.IDENT:
            return [self.assignment()]
        raise self.error(
            f"expected a statement, found {token.text!r}", token.span
        )

    def var_decl(self) -> list[Stmt]:
        self.expect(TokenKind.KEYWORD, "var")
        statements: list[Stmt] = []
        while True:
            token = self.expect(TokenKind.IDENT)
            if token.text in self.declared:
                raise self.error(
                    f"variable {token.text!r} already declared", token.span
                )
            self.declared.add(token.text)
            self.locals.append(token.text)
            if self.accept(TokenKind.OP, "="):
                value = self.expr()
                statements.append(Assign(token.text, value, token.span))
            if not self.accept(TokenKind.OP, ","):
                break
        self.expect(TokenKind.OP, ";")
        return statements

    def assignment(self) -> Stmt:
        token = self.expect(TokenKind.IDENT)
        self.check_declared(token)
        self.expect(TokenKind.OP, "=")
        if self.accept(TokenKind.KEYWORD, "call"):
            from .procedures import CallStmt

            proc_name = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.OP, "(")
            args: list = []
            if not self.at(TokenKind.OP, ")"):
                args.append(self.expr())
                while self.accept(TokenKind.OP, ","):
                    args.append(self.expr())
            self.expect(TokenKind.OP, ")")
            self.expect(TokenKind.OP, ";")
            return CallStmt(token.text, proc_name, tuple(args), token.span)
        value = self.expr()
        self.expect(TokenKind.OP, ";")
        return Assign(token.text, value, token.span)

    def havoc(self) -> Stmt:
        start = self.expect(TokenKind.KEYWORD, "havoc").span
        token = self.expect(TokenKind.IDENT)
        self.check_declared(token)
        assume: Pred | None = None
        if self.accept(TokenKind.ANNOT, "@assume"):
            self.expect(TokenKind.OP, "(")
            assume = self.pred()
            self.expect(TokenKind.OP, ")")
        self.expect(TokenKind.OP, ";")
        return Havoc(token.text, assume, start.merge(token.span))

    def if_stmt(self) -> Stmt:
        start = self.expect(TokenKind.KEYWORD, "if").span
        self.expect(TokenKind.OP, "(")
        cond = self.pred()
        self.expect(TokenKind.OP, ")")
        then_branch = self.block()
        if self.accept(TokenKind.KEYWORD, "else"):
            else_branch = self.block()
        else:
            else_branch = Block((), then_branch.span)
        return If(cond, then_branch, else_branch,
                  start.merge(else_branch.span))

    def while_stmt(self) -> Stmt:
        start = self.expect(TokenKind.KEYWORD, "while").span
        self.loop_counter += 1
        label = self.loop_counter  # source order, before the nested body
        self.expect(TokenKind.OP, "(")
        cond = self.pred()
        self.expect(TokenKind.OP, ")")
        body = self.block()
        post: Pred | None = None
        if self.accept(TokenKind.ANNOT, "@post"):
            self.expect(TokenKind.OP, "(")
            post = self.pred()
            self.expect(TokenKind.OP, ")")
        return While(cond, body, label, post, start.merge(body.span))

    def assert_stmt(self) -> Stmt:
        start = self.expect(TokenKind.KEYWORD, "assert").span
        self.expect(TokenKind.OP, "(")
        pred = self.pred()
        end = self.expect(TokenKind.OP, ")").span
        self.expect(TokenKind.OP, ";")
        return Assert(pred, start.merge(end))

    def check_declared(self, token: Token) -> None:
        if token.text not in self.declared:
            raise self.error(
                f"variable {token.text!r} is not declared", token.span
            )

    # predicates -----------------------------------------------------------
    def pred(self) -> Pred:
        left = self.and_pred()
        parts = [left]
        while self.accept(TokenKind.OP, "||"):
            parts.append(self.and_pred())
        if len(parts) == 1:
            return left
        return BoolOp("||", tuple(parts), parts[0].span.merge(parts[-1].span))

    def and_pred(self) -> Pred:
        left = self.not_pred()
        parts = [left]
        while self.accept(TokenKind.OP, "&&"):
            parts.append(self.not_pred())
        if len(parts) == 1:
            return left
        return BoolOp("&&", tuple(parts), parts[0].span.merge(parts[-1].span))

    def not_pred(self) -> Pred:
        token = self.peek()
        if self.accept(TokenKind.OP, "!"):
            inner = self.not_pred()
            return NotPred(inner, token.span.merge(inner.span))
        if self.accept(TokenKind.KEYWORD, "true"):
            return BoolConst(True, token.span)
        if self.accept(TokenKind.KEYWORD, "false"):
            return BoolConst(False, token.span)
        if self.at(TokenKind.OP, "("):
            # parenthesized predicate or parenthesized arithmetic expr
            save = self.index
            try:
                self.advance()
                inner = self.pred()
                self.expect(TokenKind.OP, ")")
                if self.peek().text in _CMP_OPS:
                    raise self.error("arithmetic context", self.peek().span)
                return inner
            except ParseError:
                self.index = save
                return self.comparison()
        return self.comparison()

    def comparison(self) -> Pred:
        left = self.expr()
        token = self.peek()
        if token.text not in _CMP_OPS:
            raise self.error(
                f"expected comparison operator, found {token.text!r}",
                token.span,
            )
        self.advance()
        right = self.expr()
        return Cmp(token.text, left, right, left.span.merge(right.span))

    # expressions ----------------------------------------------------------
    def expr(self) -> Expr:
        left = self.term()
        while True:
            token = self.peek()
            if token.text in ("+", "-") and token.kind is TokenKind.OP:
                self.advance()
                right = self.term()
                left = BinOp(token.text, left, right,
                             left.span.merge(right.span))
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while self.at(TokenKind.OP, "*"):
            self.advance()
            right = self.factor()
            left = BinOp("*", left, right, left.span.merge(right.span))
        return left

    def factor(self) -> Expr:
        token = self.peek()
        if token.kind is TokenKind.INT:
            self.advance()
            return Const(int(token.text), token.span)
        if token.kind is TokenKind.IDENT:
            self.advance()
            if token.text not in self.declared:
                raise self.error(
                    f"variable {token.text!r} is not declared", token.span
                )
            return Name(token.text, token.span)
        if self.accept(TokenKind.OP, "-"):
            inner = self.factor()
            return BinOp("-", Const(0, token.span), inner,
                         token.span.merge(inner.span))
        if self.accept(TokenKind.OP, "("):
            inner = self.expr()
            self.expect(TokenKind.OP, ")")
            return inner
        raise self.error(
            f"expected an expression, found {token.text!r}", token.span
        )


def parse_program(source: str) -> Program:
    """Parse a program (optionally preceded by ``proc`` definitions,
    which are inlined away) from its concrete syntax."""
    from .procedures import inline_module

    module = _Parser(source).module()
    return inline_module(module)


def parse_module(source: str):
    """Parse without inlining; returns a :class:`repro.lang.procedures
    .Module` (useful for tooling that wants the call structure)."""
    return _Parser(source).module()
