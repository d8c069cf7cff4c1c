package store

import (
	"bytes"
	"encoding/gob"
	"reflect"

	"repro/internal/sim"
)

// KindRun is the artifact kind for full run results.
const KindRun = "run"

// resultSchema is the schema salt for run-result entries: a structural hash
// of sim.Result computed once at init. Any layout change — a renamed field,
// a new counter, a re-typed slice — changes the salt, so every existing
// on-disk result becomes unreachable and is recomputed, never misdecoded.
var resultSchema = TypeHash(reflect.TypeOf(sim.Result{}))

// ResultSchemaHash exposes the current result-schema salt (for reports and
// debugging; keys embed it automatically).
func ResultSchemaHash() string { return resultSchema }

// RunKey is the content address of one simulation point's result: the
// runner's config fingerprint (which two jobs share iff they are guaranteed
// byte-identical results) salted with the result-schema hash.
func RunKey(fingerprint string) string {
	return KeyOf(KindRun, fingerprint, resultSchema)
}

// GetResult looks up the run result stored under the given runner
// fingerprint. A decode failure — possible only if an entry passed the
// integrity check but predates a schema change that somehow left the hash
// unchanged, which the structural hash rules out short of a collision — is
// a corrupt miss like every other defect.
func (s *Store) GetResult(fingerprint string) (sim.Result, bool) {
	var res sim.Result
	ok := s.load(KindRun, RunKey(fingerprint), func(payload []byte) error {
		return gob.NewDecoder(bytes.NewReader(payload)).Decode(&res)
	})
	if !ok {
		return sim.Result{}, false
	}
	return res, true
}

// PutResult writes a run result back under its fingerprint.
func (s *Store) PutResult(fingerprint string, res sim.Result) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	return s.Put(KindRun, RunKey(fingerprint), buf.Bytes())
}
