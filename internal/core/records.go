package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"crowdscope/internal/crawler"
)

// The freeze decodes every persisted record with this scanner, not
// encoding/json: one pass that validates the whole JSON syntax, stores
// the members a projection names and steps over the rest unbuilt. A scan
// returns exactly what json.Unmarshal returns into the same projection
// and accepts and rejects the same inputs (FuzzFreezeDecoders).

const maxDepth = 10000 // encoding/json's limit on nested arrays and objects

// lexer is a cursor over one payload.
type lexer struct {
	b        []byte
	i, depth int
}

// record decodes the payload b as one value, by scan, followed by
// nothing but whitespace. The lexer is reused from record to record.
func (l *lexer) record(b []byte, scan func(*lexer) error) error {
	*l = lexer{b: b}
	err := scan(l)
	if l.ws(); err == nil && l.i < len(l.b) {
		err = l.syntax()
	}
	return err
}

func (l *lexer) syntax() error { return fmt.Errorf("invalid JSON at offset %d of %d", l.i, len(l.b)) }

// ws skips whitespace and returns the next byte, 0 at the end.
func (l *lexer) ws() byte {
	for ; l.i < len(l.b); l.i++ {
		if c := l.b[l.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (l *lexer) literal(word string) error {
	if len(l.b)-l.i < len(word) || string(l.b[l.i:l.i+len(word)]) != word {
		return l.syntax()
	}
	l.i += len(word)
	return nil
}

// nullOr consumes a null, or fails as json does on a value of another kind.
func (l *lexer) nullOr(want string) error {
	if l.ws() == 'n' {
		return l.literal("null")
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", l.i, want)
}

// str scans the string token at l.i, returning it with its quotes, and
// whether it is plain: no escape, no byte past ASCII.
func (l *lexer) str() (tok []byte, plain bool, err error) {
	b, start, i := l.b, l.i, l.i+1 // locals: the loop is the scanner's hottest
scan:
	for plain = true; i < len(b); i++ {
		switch c := b[i]; {
		case c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf:
		case c == '"':
			l.i = i + 1
			return b[start:l.i], plain, nil
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\' && i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0:
			plain, i = false, i+1
		case c == '\\' && i+5 < len(b) && b[i+1] == 'u' && isHex(b[i+2]) && isHex(b[i+3]) && isHex(b[i+4]) && isHex(b[i+5]):
			plain, i = false, i+5
		default: // a control byte or a bad escape
			break scan
		}
	}
	l.i = i
	return nil, false, l.syntax()
}

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// number scans a number token.
func (l *lexer) number() ([]byte, error) {
	start := l.i
	accept := func(set string) bool {
		ok := l.i < len(l.b) && strings.IndexByte(set, l.b[l.i]) >= 0
		if ok {
			l.i++
		}
		return ok
	}
	digits := func() bool {
		n := l.i
		for accept("0123456789") {
		}
		return l.i > n
	}
	accept("-")
	ok := accept("0") || digits()
	if ok && accept(".") {
		ok = digits()
	}
	if ok && accept("eE") {
		accept("+-")
		ok = digits()
	}
	if !ok {
		return nil, l.syntax()
	}
	return l.b[start:l.i], nil
}

// skip validates the value at l.i and steps over it.
func (l *lexer) skip() error {
	switch c := l.ws(); {
	case c == '{':
		return l.object(nil, nil)
	case c == '[':
		if _, ok := l.plainStrings(); ok {
			return nil
		}
		return l.list(']', l.skip)
	case c == '"':
		_, _, err := l.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := l.number()
		return err
	case c == 't' || c == 'f':
		return l.literal(strconv.FormatBool(c == 't'))
	case c == 'n':
		return l.literal("null")
	}
	return l.syntax()
}

// plainByte marks the bytes a plain string holds: printable ASCII but
// the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainStrings steps over the array at l.i in one loop when it is an
// array of plain strings with no whitespace, the shape of every ID list
// the crawler writes, and returns its length. On any other array —
// whitespace, an escape, a byte past ASCII or a control byte, a bad
// separator, the nesting limit — it returns false with l.i unmoved, and
// the general scan takes the array from its first byte.
func (l *lexer) plainStrings() (n int, ok bool) {
	b, i := l.b, l.i+1
	if l.depth >= maxDepth {
		return 0, false
	}
	if i < len(b) && b[i] == ']' {
		l.i = i + 1
		return 0, true
	}
	for i < len(b) && b[i] == '"' {
		for i++; i < len(b) && plainByte[b[i]]; i++ {
		}
		if i+1 >= len(b) || b[i] != '"' {
			return 0, false
		}
		n, i = n+1, i+2
		switch b[i-1] {
		case ']':
			l.i = i
			return n, true
		case ',':
			continue
		}
		return 0, false
	}
	return 0, false
}

// list scans the elements of the array or object at l.i by elem.
func (l *lexer) list(end byte, elem func() error) error {
	if l.depth++; l.depth > maxDepth {
		return fmt.Errorf("exceeded max nesting depth at offset %d", l.i)
	}
	l.i++
	for first := true; l.ws() != end || !first; first = false {
		if err := elem(); err != nil {
			return err
		}
		if l.ws() != ',' {
			break
		}
		l.i++
	}
	if l.ws() != end {
		return l.syntax()
	}
	l.i++
	l.depth--
	return nil
}

// object decodes an object into a struct whose JSON field names are
// names: member(f) decodes a member whose key selects names[f], others
// are skipped. A null leaves the struct as it is.
func (l *lexer) object(names []string, member func(f int) error) error {
	if l.ws() != '{' {
		return l.nullOr("an object")
	}
	return l.list('}', func() error {
		if l.ws() != '"' {
			return l.syntax()
		}
		tok, plain, err := l.str()
		if err != nil {
			return err
		}
		if l.ws() != ':' {
			return l.syntax()
		}
		l.i++
		if f := fieldOf(tok, plain, names); f >= 0 {
			return member(f)
		}
		return l.skip()
	})
}

// fieldOf returns the index of the name a key token selects as
// encoding/json picks a struct field, by case folding (no two names of a
// projection fold alike, so its exact-match-first rule agrees); -1 if
// there is none.
func fieldOf(tok []byte, plain bool, names []string) int {
	key := tok[1 : len(tok)-1]
	if !plain && len(names) > 0 {
		key = []byte(unquote(tok, plain))
	}
	for f, name := range names {
		// A plain key folds byte for byte; other runes fold to one name byte at most.
		if (len(key) == len(name) || !plain && len(key) > len(name)) && strings.EqualFold(string(key), name) {
			return f
		}
	}
	return -1
}

// fields decodes an object into the struct fields ptrs point to, named
// by names, each as encoding/json decodes its type: a repeated member
// decodes again over the field, and a null leaves it as it is.
func (l *lexer) fields(names []string, ptrs ...any) error {
	return l.object(names, func(f int) error {
		switch p := ptrs[f].(type) {
		case *string:
			return l.text(p)
		case *bool:
			if c := l.ws(); c == 't' || c == 'f' {
				*p = c == 't'
				return l.literal(strconv.FormatBool(*p))
			}
			return l.nullOr("a bool")
		case *int:
			return scanInt(l, p)
		case *[]struct{}:
			return l.count(p)
		case *[]string:
			return scanSlice(l, p, l.text)
		case *cbProfile:
			return l.object([]string{"rounds"}, func(int) error {
				return scanSlice(l, &p.Rounds, func(r *cbRound) error {
					return l.object([]string{"amount_usd"}, func(int) error { return scanInt(l, &r.AmountUSD) })
				})
			})
		case *fbProfile:
			return l.object([]string{"likes"}, func(int) error { return scanInt(l, &p.Likes) })
		case *twProfile:
			return l.object([]string{"statuses_count", "followers_count"}, func(f int) error {
				return scanInt(l, []*int{&p.StatusesCount, &p.FollowersCount}[f])
			})
		}
		panic("core: fields: a field of a type the scanner does not decode")
	})
}

// text decodes a string into *p (or only checks it, for a nil p).
func (l *lexer) text(p *string) error {
	if l.ws() != '"' {
		return l.nullOr("a string")
	}
	tok, plain, err := l.str()
	if err == nil && p != nil {
		*p = unquote(tok, plain)
	}
	return err
}

// count decodes an array of strings into *p, counted: its strings are
// checked and dropped, and *p takes the array's length.
func (l *lexer) count(p *[]struct{}) error {
	if l.ws() == '[' {
		if n, ok := l.plainStrings(); ok {
			*p = make([]struct{}, n)
			return nil
		}
	}
	return scanSlice(l, p, func(*struct{}) error { return l.text(nil) })
}

// unquote returns a valid string token's value: a copy of its bytes
// when plain, else encoding/json's unquoting (U+FFFD for bad UTF-8,
// surrogate pairs joined).
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	_ = json.Unmarshal(tok, &s) //lint:ignore errwrap str validated the token, which cannot fail to unquote
	return s
}

// scanInt decodes a number into an integer field as encoding/json does:
// strconv.ParseInt's reading of it, which must fit a T.
func scanInt[T int | int64](l *lexer, p *T) error {
	if c := l.ws(); c != '-' && (c < '0' || c > '9') {
		return l.nullOr("an integer")
	}
	tok, err := l.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(T(v)) != v {
		return fmt.Errorf("cannot decode the number %s into an integer", tok)
	}
	*p = T(v)
	return nil
}

// scanSlice decodes an array into *s as encoding/json does: elem decodes
// each element over the slice's old one (even one past len, within cap),
// the slice takes the array's length, [] makes it empty and null nil.
func scanSlice[T any](l *lexer, s *[]T, elem func(*T) error) error {
	if l.ws() != '[' {
		*s = nil // for a null; anything else fails the record
		return l.nullOr("an array")
	}
	v, n := *s, 0
	err := l.list(']', func() error {
		if n == len(v) && n < cap(v) { // an old element shows again
			v = v[:n+1]
		} else if n == len(v) {
			v = append(v, *new(T))
		}
		n++
		return elem(&v[n-1])
	})
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return err
}

// scan decodes a startup record; names are the crawler's json tags.
func (r *startupRecord) scan(l *lexer) error {
	return l.fields([]string{"id", "name", "raising", "has_demo_video", "facebook_url", "twitter_url", "snapshot"},
		&r.ID, &r.Name, &r.Raising, &r.HasDemoVideo, &r.FacebookURL, &r.TwitterURL, &r.Snapshot)
}

func (r *userRecord) scan(l *lexer) error {
	return l.fields([]string{"id", "investments", "follows_startups", "snapshot"},
		&r.ID, &r.Investments, &r.Follows, &r.Snapshot)
}

// scanAugment decodes a crawler.AugmentRecord of one of the profiles.
func scanAugment[T any](r *crawler.AugmentRecord[T], l *lexer) error {
	return l.fields([]string{"startup_id", "profile", "snapshot"}, &r.StartupID, &r.Profile, &r.Snapshot)
}
