"""Recursive-descent parser for the C-like language.

The grammar is a C subset plus the hardware extensions the surveyed
languages introduced:

* ``par { ... }``       — explicit statement-level concurrency (Handel-C,
  Bach C, SpecC);
* ``seq { ... }``       — explicit sequencing inside ``par``;
* ``chan<T> c;`` with ``send(c, e)`` / ``recv(c)`` — CSP rendezvous;
* ``wait();``           — an explicit clock boundary (SystemC style);
* ``delay(n);``         — wait ``n`` cycles (Handel-C);
* ``within (n) { ... }``— a HardwareC-style timing constraint;
* sized integer types   — ``uint5 x;``, ``int12 y;``;
* ``process`` functions — top-level concurrent units.

Expression parsing uses precedence climbing with C's precedence table.

The parser walks a :class:`TokenStream` by index: it reads
``kinds[pos]`` directly and moves ``pos`` on, and asks the stream for a
:class:`SourceLocation` only for the token an AST node or an error
points at.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import TokenStream, tokenize
from .tokens import TokenKind
from .types import (
    ArrayType,
    ChannelType,
    PointerType,
    Type,
    VOID,
    BOOL,
    make_int,
)

# Token kinds by name: a module global is read far faster than an enum
# class attribute, and the parser reads one for nearly every token.
_K = TokenKind
IDENT, INT_LIT, TYPE_NAME, EOF = _K.IDENT, _K.INT_LIT, _K.TYPE_NAME, _K.EOF
LPAREN, RPAREN, LBRACE, RBRACE = _K.LPAREN, _K.RPAREN, _K.LBRACE, _K.RBRACE
LBRACKET, RBRACKET, SEMI, COMMA = _K.LBRACKET, _K.RBRACKET, _K.SEMI, _K.COMMA
QUESTION, COLON, STAR, ASSIGN = _K.QUESTION, _K.COLON, _K.STAR, _K.ASSIGN
LT, GT, INCREMENT, DECREMENT = _K.LT, _K.GT, _K.INCREMENT, _K.DECREMENT
KW_IF, KW_ELSE, KW_WHILE, KW_DO = _K.KW_IF, _K.KW_ELSE, _K.KW_WHILE, _K.KW_DO
KW_FOR, KW_CHAN, KW_CONST = _K.KW_FOR, _K.KW_CHAN, _K.KW_CONST
KW_TRUE, KW_FALSE, KW_RECV = _K.KW_TRUE, _K.KW_FALSE, _K.KW_RECV
KW_PAR, KW_PROCESS = _K.KW_PAR, _K.KW_PROCESS

# Binary operator kind -> (C spelling, precedence); higher binds tighter.
_BINARY = {
    _K.LOR: ("||", 1),
    _K.LAND: ("&&", 2),
    _K.PIPE: ("|", 3),
    _K.CARET: ("^", 4),
    _K.AMP: ("&", 5),
    _K.EQ: ("==", 6),
    _K.NE: ("!=", 6),
    _K.LT: ("<", 7),
    _K.LE: ("<=", 7),
    _K.GT: (">", 7),
    _K.GE: (">=", 7),
    _K.SHL: ("<<", 8),
    _K.SHR: (">>", 8),
    _K.PLUS: ("+", 9),
    _K.MINUS: ("-", 9),
    _K.STAR: ("*", 10),
    _K.SLASH: ("/", 10),
    _K.PERCENT: ("%", 10),
}

_UNARY = {
    _K.MINUS: "-",
    _K.TILDE: "~",
    _K.BANG: "!",
    _K.STAR: "*",
    _K.AMP: "&",
    _K.PLUS: "+",
}

_COMPOUND_ASSIGN = {
    _K.PLUS_ASSIGN: "+",
    _K.MINUS_ASSIGN: "-",
    _K.STAR_ASSIGN: "*",
    _K.SLASH_ASSIGN: "/",
    _K.PERCENT_ASSIGN: "%",
    _K.AMP_ASSIGN: "&",
    _K.PIPE_ASSIGN: "|",
    _K.CARET_ASSIGN: "^",
    _K.SHL_ASSIGN: "<<",
    _K.SHR_ASSIGN: ">>",
}


class Parser:
    def __init__(self, tokens: TokenStream):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.location = tokens.location
        self.pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def _found(self, index: int) -> str:
        return f"{self.kinds[index].value!r} ({self.texts[index]!r})"

    def _expect(self, kind: TokenKind, context: str = "") -> int:
        """Step over a token of ``kind`` and return its index."""
        pos = self.pos
        if self.kinds[pos] is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r} but found {self._found(pos)}{where}",
                self.location(pos),
            )
        self.pos = pos + 1
        return pos

    # ------------------------------------------------------------------
    # Types and declarators
    # ------------------------------------------------------------------

    def _at_type(self) -> bool:
        kind = self.kinds[self.pos]
        if kind is TYPE_NAME or kind is KW_CHAN:
            return True
        return kind is KW_CONST and self.kinds[self.pos + 1] is TYPE_NAME

    def _parse_base_type(self) -> Type:
        pos = self._expect(TYPE_NAME, "type")
        info = self.tokens.type_infos[pos]
        if info is None:
            return VOID if self.texts[pos] == "void" else BOOL
        return make_int(*info)

    def _parse_channel_type(self) -> ChannelType:
        self._expect(KW_CHAN)
        self._expect(LT, "channel type")
        element = self._parse_base_type()
        self._expect(GT, "channel type")
        return ChannelType(element)

    def _parse_declarator(self, base: Type) -> tuple:
        """Parse ``*...name[N][M]`` and return (name index, full type)."""
        kinds = self.kinds
        declared: Type = base
        while kinds[self.pos] is STAR:
            self.pos += 1
            declared = PointerType(declared)
        name = self._expect(IDENT, "declarator")
        sizes = []
        while kinds[self.pos] is LBRACKET:
            self.pos += 1
            size = self._expect(INT_LIT, "array size")
            self._expect(RBRACKET, "array declarator")
            sizes.append(self.tokens.values[size])
        for size in reversed(sizes):
            declared = ArrayType(declared, size)
        return name, declared

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self.kinds[self.pos] is not QUESTION:
            return cond
        self.pos += 1
        then = self.parse_expression()
        self._expect(COLON, "conditional expression")
        otherwise = self.parse_expression()
        return ast.Conditional(
            cond=cond, then=then, otherwise=otherwise, location=cond.location
        )

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        kinds = self.kinds
        while True:
            pos = self.pos
            binary = _BINARY.get(kinds[pos])
            if binary is None:
                return left
            op, precedence = binary
            if precedence < min_precedence:
                return left
            self.pos = pos + 1
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(
                op=op, left=left, right=right, location=self.location(pos)
            )

    def _parse_unary(self) -> ast.Expr:
        """A unary operator applied to a unary expression, or a primary
        expression with its ``[index]`` suffixes."""
        pos = self.pos
        kinds = self.kinds
        kind = kinds[pos]
        op = _UNARY.get(kind)
        if op is not None:
            self.pos = pos + 1
            operand = self._parse_unary()
            if op == "+":
                return operand
            return ast.UnaryOp(op=op, operand=operand, location=self.location(pos))
        self.pos = pos + 1
        expr: ast.Expr
        if kind is IDENT:
            if kinds[pos + 1] is LPAREN:
                expr = self._parse_call(pos)
            else:
                expr = ast.Identifier(
                    name=self.texts[pos], location=self.location(pos))
        elif kind is INT_LIT:
            expr = ast.IntLiteral(
                value=self.tokens.values[pos], location=self.location(pos))
        elif kind is LPAREN:
            expr = self.parse_expression()
            self._expect(RPAREN, "parenthesized expression")
        elif kind is KW_TRUE or kind is KW_FALSE:
            expr = ast.BoolLiteral(value=kind is KW_TRUE, location=self.location(pos))
        elif kind is KW_RECV:
            self._expect(LPAREN, "recv")
            channel = self._expect(IDENT, "recv channel")
            self._expect(RPAREN, "recv")
            expr = ast.Receive(channel=self.texts[channel], location=self.location(pos))
        else:
            raise ParseError(
                f"expected an expression but found {self._found(pos)}",
                self.location(pos),
            )
        while kinds[self.pos] is LBRACKET:
            bracket = self.pos
            self.pos = bracket + 1
            index = self.parse_expression()
            self._expect(RBRACKET, "array index")
            expr = ast.ArrayIndex(base=expr, index=index, location=self.location(bracket))
        return expr

    def _parse_call(self, callee: int) -> ast.Call:
        self.pos += 1                       # the "("
        args: List[ast.Expr] = []
        if self.kinds[self.pos] is not RPAREN:
            args.append(self.parse_expression())
            while self.kinds[self.pos] is COMMA:
                self.pos += 1
                args.append(self.parse_expression())
        self._expect(RPAREN, "call")
        return ast.Call(
            callee=self.texts[callee], args=args, location=self.location(callee)
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_brace = self._expect(LBRACE, "block")
        kinds = self.kinds
        statements: List[ast.Stmt] = []
        while kinds[self.pos] is not RBRACE:
            if kinds[self.pos] is EOF:
                raise ParseError("unterminated block", self.location(open_brace))
            statements.append(self.parse_statement())
        self.pos += 1
        return ast.Block(statements=statements, location=self.location(open_brace))

    def parse_statement(self) -> ast.Stmt:
        kind = self.kinds[self.pos]
        keyword = _STATEMENTS.get(kind)
        if keyword is not None:
            return keyword(self)
        if kind is TYPE_NAME or self._at_type():
            return self._parse_declaration()
        return self._parse_expression_statement()

    def _parse_empty(self) -> ast.Block:
        self.pos += 1
        return ast.Block(statements=[], location=self.location(self.pos - 1))

    def _parse_return(self) -> ast.Return:
        token = self.pos
        self.pos += 1
        value = None
        if self.kinds[self.pos] is not SEMI:
            value = self.parse_expression()
        self._expect(SEMI, "return")
        return ast.Return(value=value, location=self.location(token))

    def _parse_break(self) -> ast.Break:
        token = self.pos
        self.pos += 1
        self._expect(SEMI, "break")
        return ast.Break(location=self.location(token))

    def _parse_continue(self) -> ast.Continue:
        token = self.pos
        self.pos += 1
        self._expect(SEMI, "continue")
        return ast.Continue(location=self.location(token))

    def _parse_seq(self) -> ast.Seq:
        token = self.pos
        self.pos += 1
        return ast.Seq(body=self.parse_block(), location=self.location(token))

    def _parse_wait(self) -> ast.Wait:
        token = self.pos
        self.pos += 1
        self._expect(LPAREN, "wait")
        self._expect(RPAREN, "wait")
        self._expect(SEMI, "wait")
        return ast.Wait(location=self.location(token))

    def _parse_delay(self) -> ast.Delay:
        token = self.pos
        self.pos += 1
        self._expect(LPAREN, "delay")
        cycles = self._expect(INT_LIT, "delay cycle count")
        self._expect(RPAREN, "delay")
        self._expect(SEMI, "delay")
        return ast.Delay(
            cycles=self.tokens.values[cycles], location=self.location(token)
        )

    def _parse_within(self) -> ast.Within:
        token = self.pos
        self.pos += 1
        self._expect(LPAREN, "within")
        cycles = self._expect(INT_LIT, "within cycle bound")
        self._expect(RPAREN, "within")
        body = self.parse_block()
        return ast.Within(
            cycles=self.tokens.values[cycles], body=body, location=self.location(token)
        )

    def _parse_send(self) -> ast.Send:
        token = self.pos
        self.pos += 1
        self._expect(LPAREN, "send")
        channel = self._expect(IDENT, "send channel")
        self._expect(COMMA, "send")
        value = self.parse_expression()
        self._expect(RPAREN, "send")
        self._expect(SEMI, "send")
        return ast.Send(
            channel=self.texts[channel], value=value, location=self.location(token)
        )

    def _parse_channel_decl(self) -> ast.ChannelDecl:
        token = self.pos
        element = self._parse_channel_type()
        name = self._expect(IDENT, "channel declaration")
        self._expect(SEMI, "channel declaration")
        return ast.ChannelDecl(
            name=self.texts[name], element_type=element.element,
            location=self.location(token),
        )

    def _parse_if(self) -> ast.If:
        token = self._expect(KW_IF)
        self._expect(LPAREN, "if")
        cond = self.parse_expression()
        self._expect(RPAREN, "if")
        then = self.parse_statement()
        otherwise = None
        if self.kinds[self.pos] is KW_ELSE:
            self.pos += 1
            otherwise = self.parse_statement()
        return ast.If(
            cond=cond, then=then, otherwise=otherwise, location=self.location(token)
        )

    def _parse_while(self) -> ast.While:
        token = self._expect(KW_WHILE)
        self._expect(LPAREN, "while")
        cond = self.parse_expression()
        self._expect(RPAREN, "while")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body, location=self.location(token))

    def _parse_do_while(self) -> ast.DoWhile:
        token = self._expect(KW_DO)
        body = self.parse_statement()
        self._expect(KW_WHILE, "do-while")
        self._expect(LPAREN, "do-while")
        cond = self.parse_expression()
        self._expect(RPAREN, "do-while")
        self._expect(SEMI, "do-while")
        return ast.DoWhile(body=body, cond=cond, location=self.location(token))

    def _parse_for(self) -> ast.For:
        token = self._expect(KW_FOR)
        self._expect(LPAREN, "for")
        kinds = self.kinds
        init: Optional[ast.Stmt] = None
        if kinds[self.pos] is not SEMI:
            if self._at_type():
                init = self._parse_declaration()
            else:
                init = self._parse_simple_assignment_or_expr()
                self._expect(SEMI, "for initializer")
        else:
            self.pos += 1
        cond = None
        if kinds[self.pos] is not SEMI:
            cond = self.parse_expression()
        self._expect(SEMI, "for condition")
        step: Optional[ast.Stmt] = None
        if kinds[self.pos] is not RPAREN:
            step = self._parse_simple_assignment_or_expr()
        self._expect(RPAREN, "for")
        body = self.parse_statement()
        return ast.For(
            init=init, cond=cond, step=step, body=body, location=self.location(token)
        )

    def _parse_par(self) -> ast.Par:
        token = self._expect(KW_PAR)
        open_brace = self._expect(LBRACE, "par")
        kinds = self.kinds
        branches: List[ast.Stmt] = []
        while kinds[self.pos] is not RBRACE:
            if kinds[self.pos] is EOF:
                raise ParseError("unterminated par block", self.location(open_brace))
            branches.append(self.parse_statement())
        self.pos += 1
        return ast.Par(branches=branches, location=self.location(token))

    def _parse_initializer(self) -> tuple:
        """An optional ``= expr`` or ``= {expr, ...}``: (init, array_init)."""
        kinds = self.kinds
        if kinds[self.pos] is not ASSIGN:
            return None, None
        self.pos += 1
        if kinds[self.pos] is not LBRACE:
            return self.parse_expression(), None
        self.pos += 1
        array_init: List[ast.Expr] = []
        if kinds[self.pos] is not RBRACE:
            array_init.append(self.parse_expression())
            while kinds[self.pos] is COMMA:
                self.pos += 1
                if kinds[self.pos] is RBRACE:
                    break
                array_init.append(self.parse_expression())
        self._expect(RBRACE, "array initializer")
        return None, array_init

    def _parse_declaration(self) -> ast.Stmt:
        is_const = self.kinds[self.pos] is KW_CONST
        if is_const:
            self.pos += 1
        base = self._parse_base_type()
        name, declared = self._parse_declarator(base)
        init, array_init = self._parse_initializer()
        self._expect(SEMI, "declaration")
        return ast.VarDecl(
            name=self.texts[name],
            var_type=declared,
            init=init,
            array_init=array_init,
            is_const=is_const,
            location=self.location(name),
        )

    def _parse_simple_assignment_or_expr(self) -> ast.Stmt:
        """An assignment / compound assignment / ++ / -- / plain expression,
        without the trailing semicolon.  Used for statement bodies and
        ``for`` heads."""
        expr = self.parse_expression()
        pos = self.pos
        kind = self.kinds[pos]
        if kind is ASSIGN:
            if not ast.is_lvalue(expr):
                raise ParseError("assignment target is not an lvalue", self.location(pos))
            self.pos = pos + 1
            value = self.parse_expression()
            return ast.Assign(target=expr, value=value, location=self.location(pos))
        compound = _COMPOUND_ASSIGN.get(kind)
        if compound is not None:
            if not ast.is_lvalue(expr):
                raise ParseError("assignment target is not an lvalue", self.location(pos))
            self.pos = pos + 1
            rhs = self.parse_expression()
            location = self.location(pos)
            combined = ast.BinaryOp(op=compound, left=expr, right=rhs, location=location)
            return ast.Assign(target=expr, value=combined, location=location)
        if kind is INCREMENT or kind is DECREMENT:
            if not ast.is_lvalue(expr):
                raise ParseError("++/-- target is not an lvalue", self.location(pos))
            self.pos = pos + 1
            location = self.location(pos)
            delta = ast.IntLiteral(value=1, location=location)
            op = "+" if kind is INCREMENT else "-"
            combined = ast.BinaryOp(op=op, left=expr, right=delta, location=location)
            return ast.Assign(target=expr, value=combined, location=location)
        return ast.ExprStmt(expr=expr, location=expr.location)

    def _parse_expression_statement(self) -> ast.Stmt:
        stmt = self._parse_simple_assignment_or_expr()
        self._expect(SEMI, "statement")
        return stmt

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        kinds = self.kinds
        while kinds[self.pos] is not EOF:
            start = self.pos
            if kinds[start] is KW_CHAN:
                program.channels.append(self._parse_channel_decl())
                continue
            is_process = kinds[self.pos] is KW_PROCESS
            if is_process:
                self.pos += 1
            is_const = kinds[self.pos] is KW_CONST
            if is_const:
                self.pos += 1
            if kinds[self.pos] is not TYPE_NAME:
                raise ParseError(
                    f"expected a declaration but found {self._found(start)}",
                    self.location(start),
                )
            base = self._parse_base_type()
            name, declared = self._parse_declarator(base)
            if kinds[self.pos] is LPAREN:
                program.functions.append(self._parse_function_rest(
                    self.texts[name], declared, is_process, start))
                continue
            if is_process:
                raise ParseError(
                    "'process' applies only to functions", self.location(start))
            init, array_init = self._parse_initializer()
            self._expect(SEMI, "global declaration")
            program.globals.append(
                ast.VarDecl(
                    name=self.texts[name],
                    var_type=declared,
                    init=init,
                    array_init=array_init,
                    is_const=is_const,
                    location=self.location(name),
                )
            )
        return program

    def _parse_function_rest(
        self, name: str, return_type: Type, is_process: bool, start: int
    ) -> ast.FunctionDef:
        self._expect(LPAREN, "function")
        params: List[ast.Param] = []
        if self.kinds[self.pos] is not RPAREN:
            params.append(self._parse_param())
            while self.kinds[self.pos] is COMMA:
                self.pos += 1
                params.append(self._parse_param())
        self._expect(RPAREN, "function")
        body = self.parse_block()
        return ast.FunctionDef(
            name=name,
            return_type=return_type,
            params=params,
            body=body,
            is_process=is_process,
            location=self.location(start),
        )

    def _parse_param(self) -> ast.Param:
        if self.kinds[self.pos] is KW_CHAN:
            declared: Type = self._parse_channel_type()
            name = self._expect(IDENT, "parameter")
        else:
            base = self._parse_base_type()
            name, declared = self._parse_declarator(base)
        return ast.Param(
            name=self.texts[name], param_type=declared, location=self.location(name)
        )


# Statements that open with a keyword (or ``{`` or ``;``), by that token.
_STATEMENTS = {
    LBRACE: Parser.parse_block,
    SEMI: Parser._parse_empty,
    KW_IF: Parser._parse_if,
    KW_WHILE: Parser._parse_while,
    KW_DO: Parser._parse_do_while,
    KW_FOR: Parser._parse_for,
    _K.KW_RETURN: Parser._parse_return,
    _K.KW_BREAK: Parser._parse_break,
    _K.KW_CONTINUE: Parser._parse_continue,
    KW_PAR: Parser._parse_par,
    _K.KW_SEQ: Parser._parse_seq,
    _K.KW_WAIT: Parser._parse_wait,
    _K.KW_DELAY: Parser._parse_delay,
    _K.KW_WITHIN: Parser._parse_within,
    _K.KW_SEND: Parser._parse_send,
    KW_CHAN: Parser._parse_channel_decl,
}


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse a whole translation unit from source text."""
    return Parser(tokenize(source, filename)).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression; used heavily in unit tests."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    parser._expect(EOF, "expression")
    return expr
