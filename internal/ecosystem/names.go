package ecosystem

import (
	"math/rand"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Name generation: deterministic, pronounceable fake company and person
// names. Company names occasionally collide on purpose (Config.
// DupliNameFrac) so the CrunchBase name-search path has ambiguous results
// to skip, as the paper's crawler does.

var companyHeads = []string{
	"Zen", "Blu", "Nex", "Quo", "Ver", "Lum", "Arc", "Hex", "Oro", "Pix",
	"Syn", "Tel", "Uni", "Vol", "Wav", "Axi", "Bri", "Cor", "Del", "Evo",
	"Fin", "Gro", "Hel", "Ion", "Jet", "Kin", "Lex", "Mon", "Nov", "Opt",
}

var companyTails = []string{
	"tra", "mble", "vio", "dara", "lytics", "ify", "scale", "base", "ly",
	"gen", "flow", "grid", "loop", "mind", "nest", "port", "rise", "sense",
	"stack", "sync", "vault", "ware", "works", "yard", "zone", "metric",
}

var companySuffixes = []string{
	"", "", "", "", " Labs", " AI", " Systems", " Technologies", " Inc", " HQ",
}

var firstNames = []string{
	"Alex", "Bailey", "Casey", "Dana", "Eli", "Frankie", "Gray", "Harper",
	"Indra", "Jordan", "Kai", "Lee", "Morgan", "Noor", "Oak", "Parker",
	"Quinn", "Riley", "Sam", "Tatum", "Uma", "Val", "Wren", "Xia", "Yuri", "Zion",
}

var lastNames = []string{
	"Adler", "Bose", "Chen", "Diaz", "Ellis", "Fox", "Gupta", "Hale",
	"Ito", "Jones", "Khan", "Lopez", "Meyer", "Ng", "Okafor", "Park",
	"Quist", "Rossi", "Singh", "Tran", "Ueda", "Vogel", "Wang", "Xu",
	"Yang", "Zhao",
}

var locations = []string{
	"San Francisco, CA", "New York, NY", "Boston, MA", "Austin, TX",
	"Seattle, WA", "Philadelphia, PA", "Chicago, IL", "Los Angeles, CA",
	"Denver, CO", "Atlanta, GA",
}

// companyName draws a fresh company name.
func companyName(rng *rand.Rand) string {
	return companyHeads[rng.Intn(len(companyHeads))] +
		companyTails[rng.Intn(len(companyTails))] +
		companySuffixes[rng.Intn(len(companySuffixes))]
}

// personName draws a person name.
func personName(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// location draws a headquarters location.
func location(rng *rand.Rand) string {
	return locations[rng.Intn(len(locations))]
}

// normalizeName canonicalizes a company name for CrunchBase search.
func normalizeName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// appendNormalized appends normalizeName(name) to dst, allocating
// nothing for an ASCII name.
func appendNormalized(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			return append(dst, normalizeName(name)...)
		}
	}
	name = strings.TrimSpace(name)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendSlug appends the URL slug of a company name to dst: its
// lowercased letters and digits, with a '-' for each space, hyphen or
// underscore.
func appendSlug(dst []byte, name string) []byte {
	for _, r := range name {
		switch r = unicode.ToLower(r); {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			dst = append(dst, byte(r))
		case r == ' ' || r == '-' || r == '_':
			dst = append(dst, '-')
		}
	}
	return dst
}
