// Package query implements the paper's "translation layer" (§3): a small
// SQL-like language that social scientists can use against the crawled
// store and its frozen snapshots: parsed, planned onto secondary indexes
// or a scan, and executed as one streaming pass over the source's
// records.
//
// Supported form:
//
//	SELECT expr [AS name], ...
//	FROM <namespace>
//	[WHERE predicate]
//	[GROUP BY expr, ...]
//	[ORDER BY expr [DESC], ...]
//	[LIMIT n]
//
// Expressions cover identifiers (dotted JSON paths like profile.likes),
// number/string/bool literals, comparisons (= != < <= > >=), arithmetic
// (+ - * /), AND/OR/NOT, and the aggregates COUNT(*), COUNT(x), SUM(x),
// AVG(x), MIN(x), MAX(x) plus LEN(x) for array fields.
//
// Records read as JSON documents do, whatever holds them (see Record);
// missing fields evaluate to NULL, which fails comparisons (three-valued
// logic simplified to false).
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // recognized uppercase keywords
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "DESC": true, "ASC": true, "TRUE": true, "FALSE": true,
	"NULL": true,
}

// lex splits the input into tokens. Identifiers keep their case; keyword
// detection is case-insensitive.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			j := i
			seenDot := false
			for j < n && (unicode.IsDigit(rune(input[j])) || (input[j] == '.' && !seenDot)) {
				if input[j] == '.' {
					seenDot = true
				}
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			var sb strings.Builder
			for j < n && input[j] != quote {
				if input[j] == '\\' && j+1 < n {
					j++
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("query: unterminated string at %d", i)
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case isIdentStart(c):
			j := i
			seenSlash := false
			for j < n && (isIdentPart(input[j]) || (input[j] == '-' && seenSlash)) {
				if input[j] == '/' {
					seenSlash = true
				}
				j++
			}
			word := input[i:j]
			if keywords[strings.ToUpper(word)] {
				toks = append(toks, token{tokKeyword, strings.ToUpper(word), i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			// Multi-char operators first.
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "!=", "<>":
				if two == "<>" {
					two = "!="
				}
				toks = append(toks, token{tokSymbol, two, i})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '(', ')', ',', '+', '-', '*', '/':
				toks = append(toks, token{tokSymbol, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("query: unexpected character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// isIdentPart also admits '.' and '/' so dotted JSON paths and namespace
// names lex as single identifiers. The lexer additionally admits '-'
// once a '/' has been seen, so namespaces like frozen/snap-000000/companies
// lex whole while bare arithmetic (n-1) still tokenizes as subtraction.
func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.' || c == '/'
}
