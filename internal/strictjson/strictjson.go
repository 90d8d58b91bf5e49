// Package strictjson decodes the JSON inputs the tools accept from
// outside the process — fuzz cases, telemetry snapshots, the fabric's
// request and reply bodies and checkpoint payloads — through one rule:
// exactly one JSON value, no field the target type does not have, and
// nothing but white space after the value. A file with a report appended,
// two snapshots concatenated or a torn write followed by a retry are all
// refused, never half-read as the first value.
package strictjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Decode reads exactly one JSON value from r into v, refusing unknown
// fields and any non-space byte after the value. It reads r to its end.
// The error names the byte offset of the damage.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("offset %d: %w", dec.InputOffset(), err)
	}
	end := dec.InputOffset()
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, new(*json.SyntaxError)):
		return fmt.Errorf("offset %d: trailing data after the JSON value", end)
	default:
		return fmt.Errorf("offset %d: %w", end, err)
	}
}
