// Package translator implements the ParADE OpenMP translator (paper §4):
// a source-to-source compiler from OpenMP C to a program against the
// ParADE runtime API. It follows the paper's three-phase pipeline — a
// preprocessor pass (includes stripped, object-like macros expanded), a
// parse-tree build over a C subset with `#pragma omp` directives, and a
// regeneration pass that replaces each directive with runtime calls.
// Where the paper emits C + POSIX threads + MPI, this translator emits
// Go against the public `parade` package; the translation *rules* are
// the paper's: hierarchical critical, collective-mapped atomic and
// reduction (merged when multiple variables reduce together), broadcast
// singles for small analyzable blocks, static for scheduling.
//
// The accepted language is the subset the paper's evaluation programs
// need: int/long/double scalars and (multi-dimensional, constant-bound)
// arrays at file scope or function scope, functions, for/while/if/return,
// the usual expression operators, printf, and the OpenMP directives and
// clauses that the directive table in parser.go declares. Every analysis
// of the parse tree is a visitor on one walk (ast.go), and every name in
// an accepted program resolves (checkNames in codegen.go).
package translator

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies a lexical token.
type Kind int

// Token kinds.
const (
	TokEOF Kind = iota
	TokIdent
	TokNumber
	TokString
	TokChar
	TokPunct // operators and punctuation
	TokPragma
	TokKeyword
)

// Token is one lexical unit with its source position.
type Token struct {
	Kind Kind
	Text string
	Line int
}

func (t Token) String() string {
	return fmt.Sprintf("%d:%q", t.Line, t.Text)
}

// keywords of the accepted C subset.
var keywords = map[string]bool{
	"int": true, "long": true, "double": true, "float": true, "void": true,
	"char": true, "unsigned": true, "const": true, "static": true,
	"for": true, "while": true, "do": true, "if": true, "else": true,
	"return": true, "break": true, "continue": true, "struct": true,
	"sizeof": true,
}

// multi-character operators, longest first.
var punct3 = []string{"<<=", ">>=", "..."}
var punct2 = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
}

// Lexer state over preprocessed source.
type Lexer struct {
	src    string
	pos    int
	line   int
	macros map[string]string
}

// NewLexer creates a lexer over src with an empty macro table.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, macros: map[string]string{}}
}

// Lex tokenizes the whole input, applying the preprocessor behaviour:
// #include lines are dropped, object-like #define macros are recorded
// and substituted, and #pragma lines become TokPragma tokens carrying
// the pragma text.
func (lx *Lexer) Lex() ([]Token, error) {
	var out []Token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		if tok.Kind == TokEOF {
			out = append(out, tok)
			return out, nil
		}
		// Macro substitution (object-like, non-recursive one level deep
		// is enough for benchmark sources; nested macros re-resolve).
		if tok.Kind == TokIdent {
			for i := 0; i < 8; i++ {
				rep, ok := lx.macros[tok.Text]
				if !ok {
					break
				}
				tok.Text = rep
				if !isIdent(rep) {
					tok.Kind = classify(rep)
					break
				}
			}
		}
		out = append(out, tok)
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if !(r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r))) {
			return false
		}
	}
	return true
}

func classify(s string) Kind {
	if s == "" {
		return TokEOF
	}
	r := rune(s[0])
	if unicode.IsDigit(r) || (r == '.' && len(s) > 1 && unicode.IsDigit(rune(s[1]))) {
		return TokNumber
	}
	if isIdent(s) {
		if keywords[s] {
			return TokKeyword
		}
		return TokIdent
	}
	return TokPunct
}

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) at(s string) bool {
	return strings.HasPrefix(lx.src[lx.pos:], s)
}

// next produces the next token, handling whitespace, comments, and
// preprocessor lines.
func (lx *Lexer) next() (Token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case lx.at("//"):
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case lx.at("/*"):
			lx.pos += 2
			for lx.pos < len(lx.src) && !lx.at("*/") {
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				lx.pos++
			}
			if lx.pos >= len(lx.src) {
				return Token{}, fmt.Errorf("line %d: unterminated comment", lx.line)
			}
			lx.pos += 2
		case c == '#':
			if tok, emitted, err := lx.preprocessorLine(); err != nil {
				return Token{}, err
			} else if emitted {
				return tok, nil
			}
		default:
			return lx.token()
		}
	}
	return Token{Kind: TokEOF, Line: lx.line}, nil
}

// preprocessorLine consumes one # line. It returns a pragma token when
// the line is `#pragma ...`; include/define lines are handled silently.
func (lx *Lexer) preprocessorLine() (Token, bool, error) {
	start := lx.pos
	line := lx.line
	end := strings.IndexByte(lx.src[start:], '\n')
	var text string
	if end < 0 {
		text = lx.src[start:]
		lx.pos = len(lx.src)
	} else {
		text = lx.src[start : start+end]
		lx.pos = start + end // newline handled by main loop
	}
	fields := strings.Fields(strings.TrimPrefix(text, "#"))
	if len(fields) == 0 {
		return Token{}, false, nil
	}
	switch fields[0] {
	case "include":
		return Token{}, false, nil
	case "define":
		if len(fields) >= 3 {
			name := fields[1]
			if strings.Contains(name, "(") {
				return Token{}, false, fmt.Errorf("line %d: function-like macros are not supported", line)
			}
			lx.macros[name] = strings.Join(fields[2:], " ")
		} else if len(fields) == 2 {
			lx.macros[fields[1]] = ""
		}
		return Token{}, false, nil
	case "ifdef", "ifndef", "endif", "else", "undef", "if", "elif":
		// Conditional compilation is not evaluated; sources for the
		// translator should be pre-flattened.
		return Token{}, false, fmt.Errorf("line %d: preprocessor conditionals are not supported", line)
	case "pragma":
		return Token{Kind: TokPragma, Text: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(text, "#")), "pragma")), Line: line}, true, nil
	default:
		return Token{}, false, fmt.Errorf("line %d: unsupported preprocessor directive %q", line, fields[0])
	}
}

// token lexes one ordinary token starting at a non-space byte.
func (lx *Lexer) token() (Token, error) {
	line := lx.line
	c := lx.src[lx.pos]
	switch {
	case c == '"':
		start := lx.pos
		lx.pos++
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' {
			if lx.src[lx.pos] == '\\' {
				lx.pos++
			}
			lx.pos++
		}
		if lx.pos >= len(lx.src) {
			return Token{}, fmt.Errorf("line %d: unterminated string", line)
		}
		lx.pos++
		return Token{Kind: TokString, Text: lx.src[start:lx.pos], Line: line}, nil
	case c == '\'':
		start := lx.pos
		lx.pos++
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '\'' {
			if lx.src[lx.pos] == '\\' {
				lx.pos++
			}
			lx.pos++
		}
		if lx.pos >= len(lx.src) {
			return Token{}, fmt.Errorf("line %d: unterminated char literal", line)
		}
		lx.pos++
		return Token{Kind: TokChar, Text: lx.src[start:lx.pos], Line: line}, nil
	case unicode.IsDigit(rune(c)) || (c == '.' && lx.pos+1 < len(lx.src) && unicode.IsDigit(rune(lx.src[lx.pos+1]))):
		start := lx.pos
		for lx.pos < len(lx.src) && (isNumByte(lx.src[lx.pos]) ||
			((lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') && lx.pos > start &&
				(lx.src[lx.pos-1] == 'e' || lx.src[lx.pos-1] == 'E'))) {
			lx.pos++
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Line: line}, nil
	case c == '_' || unicode.IsLetter(rune(c)):
		start := lx.pos
		for lx.pos < len(lx.src) {
			r := rune(lx.src[lx.pos])
			if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line}, nil
	default:
		for _, p := range punct3 {
			if lx.at(p) {
				lx.pos += 3
				return Token{Kind: TokPunct, Text: p, Line: line}, nil
			}
		}
		for _, p := range punct2 {
			if lx.at(p) {
				lx.pos += 2
				return Token{Kind: TokPunct, Text: p, Line: line}, nil
			}
		}
		lx.pos++
		return Token{Kind: TokPunct, Text: string(c), Line: line}, nil
	}
}

func isNumByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == 'x' || c == 'X' ||
		c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == 'e' || c == 'E' || c == 'l' || c == 'L' || c == 'u' || c == 'U'
}
