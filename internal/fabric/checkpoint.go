package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dvmc/internal/frame"
	"dvmc/internal/hash"
)

// The checkpoint is an append-only journal of coordinator progress: one
// CRC-framed record per line,
//
//	DVMC2 <crc16 hex4> <payload JSON>\n
//
// where the CRC-16 (the repo's CCITT signature, internal/hash) covers
// the payload bytes. The first record is the job spec; every subsequent
// record is one accepted shard result, whose fuzz records are verdicts
// (no case: the coordinator re-derives them). Appends are flushed per
// record, so after a coordinator crash the file holds every accepted
// result plus at most one torn trailing line.
//
// Decoding is strict: a framing error, CRC mismatch, or malformed
// payload anywhere but the unterminated tail refuses the whole file
// rather than silently dropping accepted work — a truncated or
// corrupted checkpoint must never masquerade as a shorter valid one.
// Only an unterminated final line (no trailing newline: the signature
// of a crash mid-append) is recovered by dropping it.

// checkpointMagic frames every record line; its digit is the journal
// version. A version 1 result line carried each record's whole case and
// does not decode as version 2, so a DVMC1 journal is refused by name.
const checkpointMagic = "DVMC2"

// CheckpointEntry is one journal record; exactly one field is set.
type CheckpointEntry struct {
	Spec   *JobSpec     `json:"spec,omitempty"`
	Result *ShardResult `json:"result,omitempty"`
}

// AppendEntry writes one framed record line.
func AppendEntry(w io.Writer, e CheckpointEntry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("fabric: checkpoint encode: %w", err)
	}
	if bytes.ContainsRune(payload, '\n') {
		// Unreachable: encoding/json never emits raw newlines. Refuse
		// rather than corrupt the line framing if that ever changes.
		return fmt.Errorf("fabric: checkpoint payload contains newline")
	}
	_, err = fmt.Fprintf(w, "%s %04x %s\n", checkpointMagic, uint16(hash.Sum(payload)), payload)
	return err
}

// decodeEntryLine strictly decodes one record line (without its
// terminating newline). ReadCheckpoint adds the position to its errors.
func decodeEntryLine(line []byte) (CheckpointEntry, error) {
	var e CheckpointEntry
	rest, ok := bytes.CutPrefix(line, []byte(checkpointMagic+" "))
	if !ok {
		if bytes.HasPrefix(line, []byte("DVMC1 ")) {
			return e, fmt.Errorf("journal version DVMC1, whose results carry whole cases; this coordinator reads %s only", checkpointMagic)
		}
		return e, fmt.Errorf("line missing %s frame", checkpointMagic)
	}
	crcHex, payload, ok := bytes.Cut(rest, []byte(" "))
	if !ok || len(crcHex) != 4 {
		return e, fmt.Errorf("line missing crc field")
	}
	var want uint16
	if _, err := fmt.Sscanf(string(crcHex), "%04x", &want); err != nil {
		return e, fmt.Errorf("crc field %q: %w", crcHex, err)
	}
	if got := uint16(hash.Sum(payload)); got != want {
		return e, fmt.Errorf("crc mismatch: line says %04x, payload sums to %04x", want, got)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return e, fmt.Errorf("payload: %w", err)
	}
	if (e.Spec == nil) == (e.Result == nil) {
		return e, fmt.Errorf("entry must carry exactly one of spec/result")
	}
	return e, nil
}

// ReadCheckpoint decodes a checkpoint file's bytes. droppedTail reports
// the length of an unterminated (torn) final line that was recovered
// by dropping; any other defect is an error. An empty file yields no
// entries. An error is a *frame.PosError: the record and the byte offset
// of its line.
func ReadCheckpoint(data []byte) (entries []CheckpointEntry, droppedTail int, err error) {
	for off := 0; off < len(data); {
		line, _, ok := bytes.Cut(data[off:], []byte("\n"))
		if !ok {
			// Unterminated tail: the one recoverable defect. A record is
			// only accepted once its newline hits the disk.
			return entries, len(line), nil
		}
		e, err := decodeEntryLine(line)
		if err != nil {
			return nil, 0, fmt.Errorf("fabric: checkpoint %w", &frame.PosError{Record: uint64(len(entries)), Offset: int64(off), Err: err})
		}
		entries = append(entries, e)
		off += len(line) + 1
	}
	return entries, 0, nil
}
