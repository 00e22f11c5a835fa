// Package snapshot is the serving stack's cold-start eliminator: a
// compact, versioned binary format for everything a warm heteromixd has
// that a fresh one lacks — compiled kernel tables (two-type and generic
// mixed-radix, with each generic table's built frontier candidate set)
// and hot result-cache bodies. A replica that loads a sibling's snapshot
// before its listener opens serves its first predict at warm-path
// latency, and its first frontier from the restored candidate set,
// instead of paying the model walks, table builds and set-building walks
// a cold start costs.
//
// # Wire format
//
// An 8-byte magic, four length-prefixed sections in fixed order (meta,
// two-type tables, generic tables, results), then a footer carrying the
// SHA-256 of everything before it:
//
//	magic "HMXSNAP1"
//	section := id(1) | uvarint(len(payload)) | payload | crc32-IEEE(payload)
//	footer  := 0xFF | sha256(all preceding bytes)
//
// Within payloads, counts and small integers are varint-packed; float
// coefficients travel as fixed 8-byte IEEE-754 bit patterns
// (little-endian), so decode(encode(x)) is bit-identical — the same
// contract cluster's dumps give the evaluation kernels.
//
// # Validity
//
// A snapshot is only loadable into a server whose state would mint the
// exact cache keys it carries. Meta binds the file to the writer's
// profile state hash (every workload's version + every override's
// content hash), the model-source fingerprint (seed, noise, node types)
// and the build version; Meta.Compatible rejects any mismatch with a
// typed *IncompatibleError rather than letting one profile's numbers
// serve under another's keys. Decode itself never panics and never
// returns a partially-decoded snapshot: any truncation, bit flip or
// structural lie yields a typed error (ErrTruncated, ErrChecksum,
// ErrFileHash, ErrCorrupt, ...) and a nil snapshot. A well-formed file
// of another format version is incompatible, not corrupt: Decode
// reports it as an *IncompatibleError before parsing its payload.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"heteromix/internal/atomicfile"
	"heteromix/internal/cluster"
)

// FormatVersion is bumped on any wire-format change. Decode refuses a
// file of any other version with an *IncompatibleError (which also
// matches ErrFormat), never a best-effort parse: a file an older build
// wrote is stale, not corrupt.
const FormatVersion = 3

// magic identifies a snapshot file. The trailing '1' is the framing
// generation (sections, checksums, footer); payload layout changes bump
// FormatVersion, which the meta section carries ahead of every other
// payload, so old binaries fail fast on new files either way.
var magic = []byte("HMXSNAP1")

// Section ids, in required file order.
const (
	secMeta    = 1
	secTables  = 2
	secGeneric = 3
	secResults = 4
	secFooter  = 0xFF
)

// Typed decode failures. Every malformed input maps to exactly one of
// these (possibly wrapped with position detail); Decode never panics.
var (
	ErrBadMagic  = errors.New("snapshot: bad magic")
	ErrTruncated = errors.New("snapshot: truncated")
	ErrChecksum  = errors.New("snapshot: section checksum mismatch")
	ErrFileHash  = errors.New("snapshot: file hash mismatch")
	ErrFormat    = errors.New("snapshot: unsupported format version")
	ErrCorrupt   = errors.New("snapshot: corrupt")
	// ErrTooLarge marks a file or section that exceeds the decoder's
	// size cap.
	ErrTooLarge = errors.New("snapshot: exceeds size limit")
)

// IncompatibleError reports a snapshot written under different model
// state than the loading server's — the caller must discard it (or, on
// the peer-warming path, answer 409).
type IncompatibleError struct {
	Field      string // "profile_hash", "model_fingerprint", "build_version", "format_version"
	Want, Have string
}

func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("snapshot: incompatible %s: snapshot has %q, server has %q", e.Field, e.Have, e.Want)
}

// Unwrap makes a format-version mismatch match ErrFormat as well.
func (e *IncompatibleError) Unwrap() error {
	if e.Field == "format_version" {
		return ErrFormat
	}
	return nil
}

// Meta is the provenance a snapshot is validated against.
type Meta struct {
	FormatVersion uint64
	// BuildVersion is the writing binary's buildinfo string.
	BuildVersion string
	// ProfileHash is calib.Registry.StateHash at write time.
	ProfileHash string
	// ModelFingerprint identifies the model source's deterministic
	// inputs (experiments.Suite.ModelFingerprint).
	ModelFingerprint string
	// CreatedUnixNano timestamps the write (age reporting only; it does
	// not participate in compatibility).
	CreatedUnixNano int64
}

func formatMismatch(have uint64) error {
	return &IncompatibleError{
		Field: "format_version",
		Want:  fmt.Sprint(FormatVersion), Have: fmt.Sprint(have),
	}
}

// Compatible reports whether a snapshot with this Meta may load into a
// server with the given state, with a typed *IncompatibleError naming
// the first mismatched field otherwise.
func (m Meta) Compatible(profileHash, modelFingerprint, buildVersion string) error {
	if m.FormatVersion != FormatVersion {
		return formatMismatch(m.FormatVersion)
	}
	if m.ProfileHash != profileHash {
		return &IncompatibleError{Field: "profile_hash", Want: profileHash, Have: m.ProfileHash}
	}
	if m.ModelFingerprint != modelFingerprint {
		return &IncompatibleError{Field: "model_fingerprint", Want: modelFingerprint, Have: m.ModelFingerprint}
	}
	if m.BuildVersion != buildVersion {
		return &IncompatibleError{Field: "build_version", Want: buildVersion, Have: m.BuildVersion}
	}
	return nil
}

// TableEntry is one compiled two-type table under its cache key.
// Workload and NoSwitch let the loader rebuild the cluster.Space the
// restore needs without parsing the key.
type TableEntry struct {
	Key      string
	Workload string
	NoSwitch bool
	Dump     cluster.GenericTableDump
}

// GenericEntry is one generic cluster spec's compiled artifact pair
// (full and domination-pruned tables, cached together) under its cache
// key. Generic dumps are self-contained; no model lookup on restore.
type GenericEntry struct {
	Key          string
	Full, Pruned cluster.GenericTableDump
}

// ResultEntry is one hot result-cache body under its cache key.
type ResultEntry struct {
	Key  string
	Body []byte
}

// Snapshot is the decoded in-memory form. Entry slices are ordered
// hottest first — a capacity-limited loader keeps a prefix.
type Snapshot struct {
	Meta    Meta
	Tables  []TableEntry
	Generic []GenericEntry
	Results []ResultEntry
	// FileHash is the hex SHA-256 footer, set by Decode (and by Encode
	// on the bytes it produced) — the identity /healthz reports.
	FileHash string
}

// --- encoding --------------------------------------------------------

type writer struct{ buf bytes.Buffer }

func (w *writer) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *writer) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *writer) fixed64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.buf.Write(tmp[:])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf.Write(b)
}

func (w *writer) bool(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

func encodeTableDump(w *writer, d cluster.GenericTableDump) {
	w.uvarint(uint64(len(d.Types)))
	for _, td := range d.Types {
		w.varint(int64(td.MaxNodes))
		w.fixed64(td.SwitchWBits)
		w.uvarint(uint64(len(td.Configs)))
		for _, c := range td.Configs {
			w.varint(int64(c.Cores))
			w.fixed64(c.FrequencyBits)
			w.fixed64(c.TimeBits)
			w.fixed64(c.EnergyBits)
		}
	}
	w.uvarint(uint64(len(d.Candidates)))
	for _, p := range d.Candidates {
		w.uvarint(p)
	}
}

// section appends one framed section to out: id, uvarint length,
// payload, CRC32-IEEE of the payload.
func section(out *bytes.Buffer, id byte, payload []byte) {
	out.WriteByte(id)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	out.Write(tmp[:n])
	out.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	out.Write(crc[:])
}

// Encode renders the snapshot. The input's Meta.FormatVersion is
// ignored: files always carry the current FormatVersion. s.FileHash is
// updated to the encoded footer.
func Encode(s *Snapshot) []byte {
	var out bytes.Buffer
	out.Write(magic)

	var mw writer
	mw.uvarint(FormatVersion)
	mw.str(s.Meta.BuildVersion)
	mw.str(s.Meta.ProfileHash)
	mw.str(s.Meta.ModelFingerprint)
	mw.varint(s.Meta.CreatedUnixNano)
	section(&out, secMeta, mw.buf.Bytes())

	var tw writer
	tw.uvarint(uint64(len(s.Tables)))
	for _, e := range s.Tables {
		tw.str(e.Key)
		tw.str(e.Workload)
		tw.bool(e.NoSwitch)
		encodeTableDump(&tw, e.Dump)
	}
	section(&out, secTables, tw.buf.Bytes())

	var gw writer
	gw.uvarint(uint64(len(s.Generic)))
	for _, e := range s.Generic {
		gw.str(e.Key)
		encodeTableDump(&gw, e.Full)
		encodeTableDump(&gw, e.Pruned)
	}
	section(&out, secGeneric, gw.buf.Bytes())

	var rw writer
	rw.uvarint(uint64(len(s.Results)))
	for _, e := range s.Results {
		rw.str(e.Key)
		rw.bytes(e.Body)
	}
	section(&out, secResults, rw.buf.Bytes())

	sum := sha256.Sum256(out.Bytes())
	out.WriteByte(secFooter)
	out.Write(sum[:])
	s.FileHash = hex.EncodeToString(sum[:])
	return out.Bytes()
}

// --- decoding --------------------------------------------------------

// reader is a bounds-checked cursor over one section payload. Every
// read either succeeds or records ErrTruncated; no method panics on any
// input.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// maxStr caps individual strings (cache keys) — nothing legitimate
// comes close, and the cap stops a lying length prefix from asking for
// gigabytes.
const maxStr = 1 << 20

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxStr || int(n) > r.remaining() {
		r.fail(ErrTruncated)
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *reader) bytesField() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if int64(n) > int64(r.remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	b := make([]byte, n)
	copy(b, r.data[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return b
}

// count reads a collection count and guards allocation: the claimed
// count must be satisfiable by the bytes actually remaining (minSize is
// the smallest possible encoded element).
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(math.MaxInt32) || int64(n)*int64(minSize) > int64(r.remaining()) {
		r.fail(fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// Minimum encoded sizes, for allocation guards.
const (
	minConfig = 1 + 8 + 8 + 8 // varint cores + three fixed64s
	minType   = 1 + 8 + 1     // varint max nodes + switchW + config count
)

func decodeTableDump(r *reader) cluster.GenericTableDump {
	n := r.count(minType)
	if r.err != nil {
		return cluster.GenericTableDump{}
	}
	d := cluster.GenericTableDump{Types: make([]cluster.GenericTypeDump, n)}
	for i := range d.Types {
		td := cluster.GenericTypeDump{MaxNodes: int(r.varint()), SwitchWBits: r.fixed64()}
		cfgs := r.count(minConfig)
		if r.err != nil {
			return cluster.GenericTableDump{}
		}
		td.Configs = make([]cluster.GenericConfigDump, cfgs)
		for j := range td.Configs {
			td.Configs[j] = cluster.GenericConfigDump{
				Cores:         int(r.varint()),
				FrequencyBits: r.fixed64(),
				TimeBits:      r.fixed64(),
				EnergyBits:    r.fixed64(),
			}
		}
		d.Types[i] = td
	}
	if n := r.count(1); n > 0 {
		d.Candidates = make([]uint64, n)
		for i := range d.Candidates {
			d.Candidates[i] = r.uvarint()
		}
	}
	return d
}

// nextSection frames the section at *pos, verifies its CRC and returns
// its id and payload.
func nextSection(data []byte, pos *int) (id byte, payload []byte, err error) {
	if *pos >= len(data) {
		return 0, nil, ErrTruncated
	}
	id = data[*pos]
	*pos++
	n, vn := binary.Uvarint(data[*pos:])
	if vn <= 0 {
		return 0, nil, ErrTruncated
	}
	*pos += vn
	if int64(n) > int64(len(data)-*pos)-4 {
		return 0, nil, ErrTruncated
	}
	payload = data[*pos : *pos+int(n)]
	*pos += int(n)
	crc := binary.LittleEndian.Uint32(data[*pos:])
	*pos += 4
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, fmt.Errorf("%w: section %d", ErrChecksum, id)
	}
	return id, payload, nil
}

// Decode parses data into a Snapshot. It is all-or-nothing: any
// truncation, checksum or hash mismatch, or structural corruption
// yields a nil snapshot and a typed error; another format version
// yields an *IncompatibleError. Decode validates framing and
// bounds only — coefficient sanity is enforced by the cluster restore
// constructors when the snapshot is applied.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+1+sha256.Size {
		return nil, ErrTruncated
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return nil, ErrBadMagic
	}
	// Footer first: the file hash covers everything before it, so a bit
	// flip anywhere — including section framing — is caught up front.
	foot := len(data) - 1 - sha256.Size
	if data[foot] != secFooter {
		return nil, fmt.Errorf("%w: missing footer", ErrTruncated)
	}
	sum := sha256.Sum256(data[:foot])
	if !bytes.Equal(sum[:], data[foot+1:]) {
		return nil, ErrFileHash
	}

	pos := len(magic)
	body := data[:foot]
	var payloads [5][]byte
	for _, want := range []byte{secMeta, secTables, secGeneric, secResults} {
		id, payload, err := nextSection(body, &pos)
		if err != nil {
			return nil, err
		}
		if id != want {
			return nil, fmt.Errorf("%w: section %d where %d expected", ErrCorrupt, id, want)
		}
		payloads[want] = payload
	}
	if pos != foot {
		return nil, fmt.Errorf("%w: %d trailing bytes before footer", ErrCorrupt, foot-pos)
	}

	s := &Snapshot{FileHash: hex.EncodeToString(sum[:])}

	mr := &reader{data: payloads[secMeta]}
	s.Meta.FormatVersion = mr.uvarint()
	s.Meta.BuildVersion = mr.str()
	s.Meta.ProfileHash = mr.str()
	s.Meta.ModelFingerprint = mr.str()
	s.Meta.CreatedUnixNano = mr.varint()
	if mr.err != nil {
		return nil, fmt.Errorf("meta: %w", mr.err)
	}
	// The payload layout after the meta section depends on the format
	// version, so a foreign version stops here, before any of it is
	// parsed.
	if s.Meta.FormatVersion != FormatVersion {
		return nil, formatMismatch(s.Meta.FormatVersion)
	}

	tr := &reader{data: payloads[secTables]}
	nTables := tr.count(1)
	for i := 0; i < nTables && tr.err == nil; i++ {
		e := TableEntry{Key: tr.str(), Workload: tr.str()}
		e.NoSwitch = tr.byte() != 0
		e.Dump = decodeTableDump(tr)
		if tr.err == nil {
			s.Tables = append(s.Tables, e)
		}
	}
	if tr.err == nil && tr.remaining() != 0 {
		tr.fail(fmt.Errorf("%w: trailing bytes", ErrCorrupt))
	}
	if tr.err != nil {
		return nil, fmt.Errorf("tables: %w", tr.err)
	}

	gr := &reader{data: payloads[secGeneric]}
	nGeneric := gr.count(1)
	for i := 0; i < nGeneric && gr.err == nil; i++ {
		e := GenericEntry{Key: gr.str()}
		e.Full = decodeTableDump(gr)
		e.Pruned = decodeTableDump(gr)
		if gr.err == nil {
			s.Generic = append(s.Generic, e)
		}
	}
	if gr.err == nil && gr.remaining() != 0 {
		gr.fail(fmt.Errorf("%w: trailing bytes", ErrCorrupt))
	}
	if gr.err != nil {
		return nil, fmt.Errorf("generic: %w", gr.err)
	}

	rr := &reader{data: payloads[secResults]}
	nResults := rr.count(1)
	for i := 0; i < nResults && rr.err == nil; i++ {
		e := ResultEntry{Key: rr.str(), Body: rr.bytesField()}
		if rr.err == nil {
			s.Results = append(s.Results, e)
		}
	}
	if rr.err == nil && rr.remaining() != 0 {
		rr.fail(fmt.Errorf("%w: trailing bytes", ErrCorrupt))
	}
	if rr.err != nil {
		return nil, fmt.Errorf("results: %w", rr.err)
	}
	return s, nil
}

// DecodeLimited is Decode with a size cap: data longer than maxBytes
// answers ErrTooLarge before any parsing (maxBytes <= 0 disables the
// cap). The streamed peer-warming path uses it so a lying or
// compromised sibling cannot balloon the loader.
func DecodeLimited(data []byte, maxBytes int64) (*Snapshot, error) {
	if maxBytes > 0 && int64(len(data)) > maxBytes {
		return nil, fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, len(data), maxBytes)
	}
	return Decode(data)
}

// --- files -----------------------------------------------------------

// WriteFile persists the snapshot atomically and durably
// (internal/atomicfile) and verifies the encoded bytes decode back to
// the same file hash before writing them — a torn or corrupted write
// can never be installed over a good snapshot.
func WriteFile(path string, s *Snapshot) error {
	data := Encode(s)
	// Hash-verify the encoded bytes round-trip before installing.
	chk, err := Decode(data)
	if err != nil {
		return fmt.Errorf("snapshot: self-check failed: %w", err)
	}
	if chk.FileHash != s.FileHash {
		return fmt.Errorf("snapshot: self-check hash mismatch")
	}
	err = atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ReadFile loads and decodes path, capping the file size at maxBytes
// (<= 0 disables the cap). A missing file answers os.ErrNotExist so
// callers can treat first start as "no snapshot yet".
func ReadFile(path string, maxBytes int64) (*Snapshot, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if maxBytes > 0 && fi.Size() > maxBytes {
		return nil, fmt.Errorf("%w: %s is %d bytes > limit %d", ErrTooLarge, path, fi.Size(), maxBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeLimited(data, maxBytes)
}
