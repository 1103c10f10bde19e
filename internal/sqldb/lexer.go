package sqldb

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber // an unsigned integer
	tokParam  // ?
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int
}

// keywords are the words of the dialect (see Parse), plus the words of SQL
// forms it does not speak that would otherwise re-read as something it does:
// LEFT and INNER as a table alias ahead of JOIN, AS, IS and OFFSET as an alias
// or trailing input, FALSE as a column. Reserving them makes such a form a
// parse error instead of a different statement.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "INDEX": true, "UNIQUE": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true, "TRUE": true,
	"PRIMARY": true, "KEY": true, "AUTOINCREMENT": true, "INTEGER": true,
	"FLOAT": true, "TEXT": true, "BOOLEAN": true, "DATETIME": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"JOIN": true, "IN": true, "LIKE": true, "COUNT": true, "DISTINCT": true,
	"LEFT": true, "INNER": true, "AS": true, "IS": true, "OFFSET": true, "FALSE": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src, returning the token stream ending in tokEOF.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
			l.pos++
		}
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '?':
			l.emit(tokParam, "?")
			l.pos++
		case isDigit(c):
			start := l.pos
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case isIdentStart(c):
			l.lexWord()
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: word, pos: start})
	}
}

func (l *lexer) lexSymbol() error {
	if two := l.src[l.pos:min(l.pos+2, len(l.src))]; two == "<=" || two == ">=" || two == "!=" {
		l.emit(tokSymbol, two)
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '*', '.':
		l.emit(tokSymbol, string(c))
		l.pos++
		return nil
	}
	return fmt.Errorf("sqldb: unexpected character %q at offset %d", c, l.pos)
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
