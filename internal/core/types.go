// Package core implements the GODIVA database: a lightweight, in-memory
// data-management library for scientific visualization applications, after
// Norris, Jiao, Fiedler, Ma and Winslett, "GODIVA: Lightweight Data
// Management for Scientific Visualization Applications" (ICDE 2004).
//
// The database manages data buffer *locations*, never buffer contents.
// Visualization codes define field types and record types (schemas), create
// records whose fields hold typed data buffers, and commit records into a
// composite-key index. Data flows into the database at the granularity of
// processing units, read by developer-supplied read functions, optionally in
// the background on a single I/O goroutine (the paper's I/O thread), with
// LRU caching of finished units under a developer-set memory cap.
//
// The public entry point for applications is the root package godiva, a thin
// facade over this package.
package core

import (
	"errors"
	"fmt"
)

// DataType identifies the element type of a field data buffer.
type DataType int

// Field data types. Sizes are always expressed in bytes, as in the paper
// (Table 1 declares an 11-byte STRING; Figure 2 shows 101 coordinates stored
// in an 808-byte DOUBLE buffer).
const (
	String DataType = iota + 1 // uninterpreted text bytes
	Bytes                      // uninterpreted raw bytes
	Int32
	Int64
	Float32
	Float64
)

// Unknown marks a field whose buffer size is not known at schema-definition
// time; the buffer must be allocated explicitly with AllocFieldBuffer once
// the size has been learned (typically after reading meta data).
const Unknown = -1

// String returns the paper-style name of the data type.
func (t DataType) String() string {
	switch t {
	case String:
		return "STRING"
	case Bytes:
		return "BYTES"
	case Int32:
		return "INT32"
	case Int64:
		return "INT64"
	case Float32:
		return "FLOAT"
	case Float64:
		return "DOUBLE"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// ElemSize returns the size in bytes of one element of the type.
func (t DataType) ElemSize() int {
	switch t {
	case String, Bytes:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		return 0
	}
}

func (t DataType) valid() bool {
	switch t {
	case String, Bytes, Int32, Int64, Float32, Float64:
		return true
	}
	return false
}

// Errors returned by the GODIVA database. Wrapped errors carry context;
// match with errors.Is.
var (
	// ErrClosed is returned by operations on a closed database.
	ErrClosed = errors.New("godiva: database is closed")
	// ErrExists is returned when defining a field, record type or unit name
	// that already exists.
	ErrExists = errors.New("godiva: already defined")
	// ErrUnknownField is returned when a field type name has not been defined.
	ErrUnknownField = errors.New("godiva: unknown field type")
	// ErrUnknownRecordType is returned when a record type name has not been
	// defined.
	ErrUnknownRecordType = errors.New("godiva: unknown record type")
	// ErrUnknownUnit is returned for operations on a unit that was never
	// added or read.
	ErrUnknownUnit = errors.New("godiva: unknown unit")
	// ErrNotCommitted is returned when using a record type before
	// CommitRecordType, or querying a record before CommitRecord.
	ErrNotCommitted = errors.New("godiva: not committed")
	// ErrCommitted is returned when modifying a schema or record after it
	// has been committed.
	ErrCommitted = errors.New("godiva: already committed")
	// ErrNotFound is returned by key queries with no matching record.
	ErrNotFound = errors.New("godiva: record not found")
	// ErrRecordDropped is returned by the accessors of a record that has
	// left the database — deleted, evicted with its unit, replaced by a
	// duplicate-key commit, or swept by Close. It wraps ErrNotFound.
	ErrRecordDropped = fmt.Errorf("%w: record was deleted, evicted or replaced", ErrNotFound)
	// ErrNoBuffer is returned when accessing a field whose buffer has not
	// been allocated.
	ErrNoBuffer = errors.New("godiva: field buffer not allocated")
	// ErrKeyCount is returned when a query supplies the wrong number of key
	// values, or a record type declares a key arity its fields do not meet.
	ErrKeyCount = errors.New("godiva: wrong number of key fields")
	// ErrTypeMismatch is returned when a buffer is accessed as the wrong
	// element type, or a key value does not match the key field's type.
	ErrTypeMismatch = errors.New("godiva: data type mismatch")
	// ErrBadSize is returned for negative or non-multiple-of-element sizes.
	ErrBadSize = errors.New("godiva: invalid buffer size")
	// ErrDeadlock is returned when the database detects the condition of
	// paper §3.3: a thread is waiting for a unit while the reader is blocked
	// for memory and no unit can be evicted.
	ErrDeadlock = errors.New("godiva: prefetch deadlock (memory exhausted with no evictable unit)")
	// ErrUnitFailed wraps the error returned by a unit's read function.
	ErrUnitFailed = errors.New("godiva: unit read failed")
	// ErrNoMemory is returned when a single allocation exceeds the database
	// memory limit outright.
	ErrNoMemory = errors.New("godiva: allocation exceeds database memory limit")
	// ErrBorrowed is returned when mutating a borrowed buffer (one whose
	// memory was donated by a read function instead of allocated by the
	// database) or when donating to a record whose lifetime the database
	// cannot bound (a resident record). Borrowed memory is read-only and
	// lives exactly as long as the owning unit.
	ErrBorrowed = errors.New("godiva: buffer memory is borrowed (read-only, unit-scoped)")
	// ErrUnitState is returned when a unit lifecycle operation is applied in
	// a state that does not allow it — e.g. finishing a unit that is still
	// pending or already deleted. Callers racing on shared unit names can
	// match it with errors.Is to tolerate exactly this case.
	ErrUnitState = errors.New("godiva: unit is in the wrong state for this operation")
)
