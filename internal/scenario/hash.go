package scenario

import "encoding/json"

// Hash returns the spec's identity as a 64-bit FNV-1a over its canonical
// JSON encoding. It covers every field — including presentation-only ones
// like Description — so any textual change moves it (struct field order
// fixes the encoding, so the hash is stable across processes and
// platforms).
func Hash(s Spec) uint64 {
	raw, err := json.Marshal(s)
	if err != nil {
		panic("scenario: hash: " + err.Error())
	}
	return fnv64(raw)
}

// fnv64 is FNV-1a over raw.
func fnv64(raw []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range raw {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
