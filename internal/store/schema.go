package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
)

// TypeHash derives a stable hash of a Go type's structure: field names,
// field order and (recursively) field types. It is the schema salt for
// stored artifacts — any layout change to sim.Result or the checkpoint
// image struct changes the hash, which changes every affected key, which
// makes every existing on-disk entry an automatic miss. No migration code,
// no version constant to forget to bump.
//
// The description is purely structural (it ignores package paths of the
// named types but keeps their names), so moving a type between packages
// without changing its shape does not invalidate the cache, while renaming
// or re-typing a field does.
func TypeHash(t reflect.Type) string {
	var sb strings.Builder
	describeType(&sb, t, map[reflect.Type]bool{})
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

func describeType(sb *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Pointer:
		sb.WriteString("*")
		describeType(sb, t.Elem(), seen)
	case reflect.Slice:
		sb.WriteString("[]")
		describeType(sb, t.Elem(), seen)
	case reflect.Array:
		fmt.Fprintf(sb, "[%d]", t.Len())
		describeType(sb, t.Elem(), seen)
	case reflect.Map:
		sb.WriteString("map[")
		describeType(sb, t.Key(), seen)
		sb.WriteString("]")
		describeType(sb, t.Elem(), seen)
	case reflect.Struct:
		name := t.Name()
		fmt.Fprintf(sb, "struct %s", name)
		if seen[t] {
			return // recursive type: the name alone breaks the cycle
		}
		seen[t] = true
		sb.WriteString("{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				// Unexported fields do not survive serialization (gob
				// encodes exported state only), so they are not schema.
				continue
			}
			sb.WriteString(f.Name)
			sb.WriteString(" ")
			describeType(sb, f.Type, seen)
			sb.WriteString(";")
		}
		sb.WriteString("}")
	default:
		sb.WriteString(t.Kind().String())
	}
}
