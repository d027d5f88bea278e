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
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind
from .types import (
    ArrayType,
    BoolType,
    ChannelType,
    PointerType,
    Type,
    VOID,
    BOOL,
    make_int,
)

# C precedence: higher binds tighter.  (op text -> (precedence, right_assoc))
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_BINARY_TOKENS = {
    TokenKind.LOR: "||",
    TokenKind.LAND: "&&",
    TokenKind.PIPE: "|",
    TokenKind.CARET: "^",
    TokenKind.AMP: "&",
    TokenKind.EQ: "==",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
    TokenKind.SHL: "<<",
    TokenKind.SHR: ">>",
    TokenKind.PLUS: "+",
    TokenKind.MINUS: "-",
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.PERCENT: "%",
}

_UNARY_TOKENS = {
    TokenKind.MINUS: "-",
    TokenKind.TILDE: "~",
    TokenKind.BANG: "!",
    TokenKind.STAR: "*",
    TokenKind.AMP: "&",
    TokenKind.PLUS: "+",
}

_COMPOUND_ASSIGN = {
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
    TokenKind.PERCENT_ASSIGN: "%",
    TokenKind.AMP_ASSIGN: "&",
    TokenKind.PIPE_ASSIGN: "|",
    TokenKind.CARET_ASSIGN: "^",
    TokenKind.SHL_ASSIGN: "<<",
    TokenKind.SHR_ASSIGN: ">>",
}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # The stream ends with EOF, which also stands for any lookahead
        # past the end.
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def _at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self.tokens[self.pos]
        if token.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r} but found {token.kind.value!r}"
                f" ({token.text!r}){where}",
                token.location,
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self.tokens[self.pos].kind is kind:
            return self._advance()
        return None

    # ------------------------------------------------------------------
    # Types and declarators
    # ------------------------------------------------------------------

    def _at_type(self) -> bool:
        if self._at(TokenKind.TYPE_NAME) or self._at(TokenKind.KW_CHAN):
            return True
        return self._at(TokenKind.KW_CONST) and self._peek(1).kind is TokenKind.TYPE_NAME

    def _parse_base_type(self) -> Type:
        token = self._expect(TokenKind.TYPE_NAME, "type")
        if token.text == "void":
            return VOID
        if token.text == "bool":
            return BOOL
        width, signed = token.type_info  # type: ignore[misc]
        return make_int(width, signed)

    def _parse_channel_type(self) -> Type:
        self._expect(TokenKind.KW_CHAN)
        self._expect(TokenKind.LT, "channel type")
        element = self._parse_base_type()
        self._expect(TokenKind.GT, "channel type")
        return ChannelType(element)

    def _parse_declarator(self, base: Type) -> tuple:
        """Parse ``*...name[N][M]`` and return (name_token, full_type)."""
        pointer_depth = 0
        while self._accept(TokenKind.STAR):
            pointer_depth += 1
        name = self._expect(TokenKind.IDENT, "declarator")
        declared: Type = base
        for _ in range(pointer_depth):
            declared = PointerType(declared)
        sizes = []
        while self._accept(TokenKind.LBRACKET):
            size = self._expect(TokenKind.INT_LIT, "array size")
            self._expect(TokenKind.RBRACKET, "array declarator")
            sizes.append(size.value)
        for size in reversed(sizes):
            declared = ArrayType(declared, size)
        return name, declared

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_conditional()

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept(TokenKind.QUESTION):
            then = self.parse_expression()
            self._expect(TokenKind.COLON, "conditional expression")
            otherwise = self._parse_conditional()
            return ast.Conditional(
                cond=cond, then=then, otherwise=otherwise, location=cond.location
            )
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op = _BINARY_TOKENS.get(self.tokens[self.pos].kind)
            if op is None:
                return left
            precedence = _BINARY_PRECEDENCE[op]
            if precedence < min_precedence:
                return left
            op_token = self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(
                op=op, left=left, right=right, location=op_token.location
            )

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        op = _UNARY_TOKENS.get(token.kind)
        if op is None:
            return self._parse_postfix()
        self._advance()
        operand = self._parse_unary()
        if op == "+":
            return operand
        return ast.UnaryOp(op=op, operand=operand, location=token.location)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._at(TokenKind.LBRACKET):
                bracket = self._advance()
                index = self.parse_expression()
                self._expect(TokenKind.RBRACKET, "array index")
                expr = ast.ArrayIndex(
                    base=expr, index=index, location=bracket.location
                )
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLiteral(value=token.value or 0, location=token.location)
        if token.kind is TokenKind.KW_TRUE:
            self._advance()
            return ast.BoolLiteral(value=True, location=token.location)
        if token.kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.BoolLiteral(value=False, location=token.location)
        if token.kind is TokenKind.KW_RECV:
            self._advance()
            self._expect(TokenKind.LPAREN, "recv")
            channel = self._expect(TokenKind.IDENT, "recv channel")
            self._expect(TokenKind.RPAREN, "recv")
            return ast.Receive(channel=channel.text, location=token.location)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._at(TokenKind.LPAREN):
                self._advance()
                args: List[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    while self._accept(TokenKind.COMMA):
                        args.append(self.parse_expression())
                self._expect(TokenKind.RPAREN, "call")
                return ast.Call(callee=token.text, args=args, location=token.location)
            return ast.Identifier(name=token.text, location=token.location)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(TokenKind.RPAREN, "parenthesized expression")
            return expr
        raise ParseError(
            f"expected an expression but found {token.kind.value!r}"
            f" ({token.text!r})",
            token.location,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_brace = self._expect(TokenKind.LBRACE, "block")
        statements: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated block", open_brace.location)
            statements.append(self.parse_statement())
        self._expect(TokenKind.RBRACE, "block")
        return ast.Block(statements=statements, location=open_brace.location)

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.LBRACE:
            return self.parse_block()
        if kind is TokenKind.SEMI:
            self._advance()
            return ast.Block(statements=[], location=token.location)
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._at(TokenKind.SEMI):
                value = self.parse_expression()
            self._expect(TokenKind.SEMI, "return")
            return ast.Return(value=value, location=token.location)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI, "break")
            return ast.Break(location=token.location)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI, "continue")
            return ast.Continue(location=token.location)
        if kind is TokenKind.KW_PAR:
            return self._parse_par()
        if kind is TokenKind.KW_SEQ:
            self._advance()
            return ast.Seq(body=self.parse_block(), location=token.location)
        if kind is TokenKind.KW_WAIT:
            self._advance()
            self._expect(TokenKind.LPAREN, "wait")
            self._expect(TokenKind.RPAREN, "wait")
            self._expect(TokenKind.SEMI, "wait")
            return ast.Wait(location=token.location)
        if kind is TokenKind.KW_DELAY:
            self._advance()
            self._expect(TokenKind.LPAREN, "delay")
            cycles = self._expect(TokenKind.INT_LIT, "delay cycle count")
            self._expect(TokenKind.RPAREN, "delay")
            self._expect(TokenKind.SEMI, "delay")
            return ast.Delay(cycles=cycles.value or 0, location=token.location)
        if kind is TokenKind.KW_WITHIN:
            self._advance()
            self._expect(TokenKind.LPAREN, "within")
            cycles = self._expect(TokenKind.INT_LIT, "within cycle bound")
            self._expect(TokenKind.RPAREN, "within")
            body = self.parse_block()
            return ast.Within(
                cycles=cycles.value or 0, body=body, location=token.location
            )
        if kind is TokenKind.KW_SEND:
            self._advance()
            self._expect(TokenKind.LPAREN, "send")
            channel = self._expect(TokenKind.IDENT, "send channel")
            self._expect(TokenKind.COMMA, "send")
            value = self.parse_expression()
            self._expect(TokenKind.RPAREN, "send")
            self._expect(TokenKind.SEMI, "send")
            return ast.Send(channel=channel.text, value=value, location=token.location)
        if kind is TokenKind.KW_CHAN:
            element = self._parse_channel_type()
            name = self._expect(TokenKind.IDENT, "channel declaration")
            self._expect(TokenKind.SEMI, "channel declaration")
            assert isinstance(element, ChannelType)
            return ast.ChannelDecl(
                name=name.text, element_type=element.element, location=token.location
            )
        if self._at_type():
            return self._parse_declaration()
        return self._parse_expression_statement()

    def _parse_if(self) -> ast.If:
        token = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN, "if")
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN, "if")
        then = self.parse_statement()
        otherwise = None
        if self._accept(TokenKind.KW_ELSE):
            otherwise = self.parse_statement()
        return ast.If(cond=cond, then=then, otherwise=otherwise, location=token.location)

    def _parse_while(self) -> ast.While:
        token = self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN, "while")
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN, "while")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body, location=token.location)

    def _parse_do_while(self) -> ast.DoWhile:
        token = self._expect(TokenKind.KW_DO)
        body = self.parse_statement()
        self._expect(TokenKind.KW_WHILE, "do-while")
        self._expect(TokenKind.LPAREN, "do-while")
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN, "do-while")
        self._expect(TokenKind.SEMI, "do-while")
        return ast.DoWhile(body=body, cond=cond, location=token.location)

    def _parse_for(self) -> ast.For:
        token = self._expect(TokenKind.KW_FOR)
        self._expect(TokenKind.LPAREN, "for")
        init: Optional[ast.Stmt] = None
        if not self._at(TokenKind.SEMI):
            if self._at_type():
                init = self._parse_declaration()
            else:
                init = self._parse_simple_assignment_or_expr()
                self._expect(TokenKind.SEMI, "for initializer")
        else:
            self._advance()
        cond = None
        if not self._at(TokenKind.SEMI):
            cond = self.parse_expression()
        self._expect(TokenKind.SEMI, "for condition")
        step: Optional[ast.Stmt] = None
        if not self._at(TokenKind.RPAREN):
            step = self._parse_simple_assignment_or_expr()
        self._expect(TokenKind.RPAREN, "for")
        body = self.parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body, location=token.location)

    def _parse_par(self) -> ast.Par:
        token = self._expect(TokenKind.KW_PAR)
        open_brace = self._expect(TokenKind.LBRACE, "par")
        branches: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated par block", open_brace.location)
            branches.append(self.parse_statement())
        self._expect(TokenKind.RBRACE, "par")
        return ast.Par(branches=branches, location=token.location)

    def _parse_declaration(self) -> ast.Stmt:
        is_const = self._accept(TokenKind.KW_CONST) is not None
        base = self._parse_base_type()
        name, declared = self._parse_declarator(base)
        init: Optional[ast.Expr] = None
        array_init: Optional[List[ast.Expr]] = None
        if self._accept(TokenKind.ASSIGN):
            if self._at(TokenKind.LBRACE):
                self._advance()
                array_init = []
                if not self._at(TokenKind.RBRACE):
                    array_init.append(self.parse_expression())
                    while self._accept(TokenKind.COMMA):
                        if self._at(TokenKind.RBRACE):
                            break
                        array_init.append(self.parse_expression())
                self._expect(TokenKind.RBRACE, "array initializer")
            else:
                init = self.parse_expression()
        self._expect(TokenKind.SEMI, "declaration")
        return ast.VarDecl(
            name=name.text,
            var_type=declared,
            init=init,
            array_init=array_init,
            is_const=is_const,
            location=name.location,
        )

    def _parse_simple_assignment_or_expr(self) -> ast.Stmt:
        """An assignment / compound assignment / ++ / -- / plain expression,
        without the trailing semicolon.  Used for statement bodies and
        ``for`` heads."""
        expr = self.parse_expression()
        token = self._peek()
        if token.kind is TokenKind.ASSIGN:
            if not ast.is_lvalue(expr):
                raise ParseError("assignment target is not an lvalue", token.location)
            self._advance()
            value = self.parse_expression()
            return ast.Assign(target=expr, value=value, location=token.location)
        if token.kind in _COMPOUND_ASSIGN:
            if not ast.is_lvalue(expr):
                raise ParseError("assignment target is not an lvalue", token.location)
            self._advance()
            rhs = self.parse_expression()
            combined = ast.BinaryOp(
                op=_COMPOUND_ASSIGN[token.kind],
                left=expr,
                right=rhs,
                location=token.location,
            )
            return ast.Assign(target=expr, value=combined, location=token.location)
        if token.kind in (TokenKind.INCREMENT, TokenKind.DECREMENT):
            if not ast.is_lvalue(expr):
                raise ParseError("++/-- target is not an lvalue", token.location)
            self._advance()
            delta = ast.IntLiteral(value=1, location=token.location)
            op = "+" if token.kind is TokenKind.INCREMENT else "-"
            combined = ast.BinaryOp(
                op=op, left=expr, right=delta, location=token.location
            )
            return ast.Assign(target=expr, value=combined, location=token.location)
        return ast.ExprStmt(expr=expr, location=expr.location)

    def _parse_expression_statement(self) -> ast.Stmt:
        stmt = self._parse_simple_assignment_or_expr()
        self._expect(TokenKind.SEMI, "statement")
        return stmt

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._at(TokenKind.EOF):
            token = self._peek()
            if token.kind is TokenKind.KW_CHAN:
                decl = self.parse_statement()
                assert isinstance(decl, ast.ChannelDecl)
                program.channels.append(decl)
                continue
            is_process = self._accept(TokenKind.KW_PROCESS) is not None
            is_const = False
            if self._at(TokenKind.KW_CONST):
                is_const = True
                self._advance()
            if not self._at(TokenKind.TYPE_NAME):
                raise ParseError(
                    f"expected a declaration but found {token.kind.value!r}"
                    f" ({token.text!r})",
                    token.location,
                )
            base = self._parse_base_type()
            name, declared = self._parse_declarator(base)
            if self._at(TokenKind.LPAREN):
                program.functions.append(
                    self._parse_function_rest(name.text, declared, is_process, token)
                )
            else:
                if is_process:
                    raise ParseError("'process' applies only to functions", token.location)
                init: Optional[ast.Expr] = None
                array_init: Optional[List[ast.Expr]] = None
                if self._accept(TokenKind.ASSIGN):
                    if self._at(TokenKind.LBRACE):
                        self._advance()
                        array_init = []
                        if not self._at(TokenKind.RBRACE):
                            array_init.append(self.parse_expression())
                            while self._accept(TokenKind.COMMA):
                                if self._at(TokenKind.RBRACE):
                                    break
                                array_init.append(self.parse_expression())
                        self._expect(TokenKind.RBRACE, "array initializer")
                    else:
                        init = self.parse_expression()
                self._expect(TokenKind.SEMI, "global declaration")
                program.globals.append(
                    ast.VarDecl(
                        name=name.text,
                        var_type=declared,
                        init=init,
                        array_init=array_init,
                        is_const=is_const,
                        location=name.location,
                    )
                )
        return program

    def _parse_function_rest(
        self, name: str, return_type: Type, is_process: bool, start: Token
    ) -> ast.FunctionDef:
        self._expect(TokenKind.LPAREN, "function")
        params: List[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            params.append(self._parse_param())
            while self._accept(TokenKind.COMMA):
                params.append(self._parse_param())
        self._expect(TokenKind.RPAREN, "function")
        body = self.parse_block()
        return ast.FunctionDef(
            name=name,
            return_type=return_type,
            params=params,
            body=body,
            is_process=is_process,
            location=start.location,
        )

    def _parse_param(self) -> ast.Param:
        if self._at(TokenKind.KW_CHAN):
            chan_type = self._parse_channel_type()
            name = self._expect(TokenKind.IDENT, "parameter")
            return ast.Param(name=name.text, param_type=chan_type, location=name.location)
        base = self._parse_base_type()
        name, declared = self._parse_declarator(base)
        return ast.Param(name=name.text, param_type=declared, location=name.location)


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse a whole translation unit from source text."""
    return Parser(tokenize(source, filename)).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression; used heavily in unit tests."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    parser._expect(TokenKind.EOF, "expression")
    return expr
