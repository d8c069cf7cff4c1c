package store

import (
	"bytes"
	"encoding/gob"

	"repro/internal/sim"
)

// KindRun is the artifact kind for full run results.
const KindRun = "run"

// runKey is the content address of one simulation point's result: the
// program hash and the runner's config fingerprint, which two jobs share
// iff they are guaranteed byte-identical results.
func (s *Store) runKey(fingerprint string) string {
	return KeyOf(KindRun, s.prog, fingerprint)
}

// GetResult looks up the run result stored under the given runner
// fingerprint. A payload that fails to decode — possible only through
// tampering or a collision, since only this program writes under its
// keys — is a corrupt miss like every other defect.
func (s *Store) GetResult(fingerprint string) (sim.Result, bool) {
	var res sim.Result
	ok := s.load(KindRun, s.runKey(fingerprint), func(payload []byte) error {
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
	return s.Put(KindRun, s.runKey(fingerprint), buf.Bytes())
}
