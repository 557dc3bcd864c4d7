package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/lcc"
	"repro/internal/part"
)

// Manifest is the durable record of one loaded instance, and the body of
// lccd's /v1/load that asks for one: everything the daemon needs to
// rebuild the instance after a crash-stop of the *process* — dataset spec,
// distribution, storage mode, memory budget and admission config. It
// deliberately holds no graph bytes: the dataset registry (and its disk
// cache) is the source of truth for data; the manifest is the source of
// truth for *which instances exist and how they are configured*.
//
// On disk a manifest is a small framed file (DESIGN.md §8):
//
//	magic    [8]byte  "LCCMANIF"
//	version  uint32   (1)
//	length   uint32   payload byte count
//	payload  JSON-encoded Manifest
//	crc      uint32   CRC-32C (Castagnoli) of the payload
//
// — the same checksum discipline as the §9 binary graph container, scaled
// down to a config record. Writes are atomic (tmp + rename), so a crash
// mid-save never leaves a torn manifest; reads verify magic, version,
// framing and checksum and fail with a typed *ManifestError. A corrupt or
// version-skewed manifest is *skipped loudly* during recovery, never
// fatal: losing one instance's config must not take down the fleet.
type Manifest struct {
	Name             string `json:"name"`
	Dataset          string `json:"dataset"`
	Ranks            int    `json:"ranks"`
	Scheme           string `json:"scheme"`
	DelegateBytes    int    `json:"delegate_bytes,omitempty"`
	Storage          string `json:"storage,omitempty"`
	MemBudgetBytes   int64  `json:"mem_budget_bytes,omitempty"`
	MaxConcurrent    int    `json:"max_concurrent,omitempty"`
	QueueDepth       int    `json:"queue_depth,omitempty"`
	DefaultTimeoutMS int64  `json:"default_timeout_ms,omitempty"`
	StallTimeoutMS   int64  `json:"stall_timeout_ms,omitempty"`
}

var manifestMagic = [8]byte{'L', 'C', 'C', 'M', 'A', 'N', 'I', 'F'}

// ManifestVersion is the current manifest format version. Files carrying
// any other version are skipped with ErrManifestVersion during recovery.
const ManifestVersion = 1

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// Typed manifest failure classes, wrapped by *ManifestError.
var (
	// ErrManifestCorrupt marks a manifest that failed a framing, magic or
	// checksum check.
	ErrManifestCorrupt = errors.New("serve: corrupt manifest")
	// ErrManifestVersion marks a manifest written by a different format
	// version.
	ErrManifestVersion = errors.New("serve: manifest version mismatch")
)

// ManifestError reports one unreadable manifest file. Recovery collects
// them instead of failing: errors.Is sees the wrapped class
// (ErrManifestCorrupt / ErrManifestVersion).
type ManifestError struct {
	Path   string
	Reason string
	Err    error // ErrManifestCorrupt or ErrManifestVersion
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("serve: manifest %s: %s", filepath.Base(e.Path), e.Reason)
}

func (e *ManifestError) Unwrap() error { return e.Err }

// Config converts the manifest into the instance Config it describes — the
// one mapping between the wire/disk schema and Config, shared by recovery
// and lccd's /v1/load. A record without a name or a dataset, or with an
// unknown scheme or storage name, fails with the plain error: a manifest
// written by a future version with new enum values must not silently load
// under the wrong distribution (Recover reports it as ErrManifestCorrupt),
// and a load request like it is a bad request.
func (m *Manifest) Config() (Config, error) {
	if m.Name == "" || m.Dataset == "" {
		return Config{}, errors.New("serve: manifest needs name and dataset")
	}
	scheme, err := part.ParseScheme(m.Scheme)
	if err != nil {
		return Config{}, err
	}
	storage, err := lcc.ParseStorageMode(m.Storage)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Dataset:        m.Dataset,
		Ranks:          m.Ranks,
		Scheme:         scheme,
		DelegateBytes:  m.DelegateBytes,
		Storage:        storage,
		MemBudgetBytes: m.MemBudgetBytes,
		MaxConcurrent:  m.MaxConcurrent,
		QueueDepth:     m.QueueDepth,
		DefaultTimeout: time.Duration(m.DefaultTimeoutMS) * time.Millisecond,
		StallTimeout:   time.Duration(m.StallTimeoutMS) * time.Millisecond,
	}, nil
}

// manifestFor captures an instance's durable half. Instances serving a
// directly injected Graph (cfg.Graph != nil) have no dataset to rebuild
// from and report ok=false: they are served but not durable.
func manifestFor(name string, cfg Config) (*Manifest, bool) {
	if cfg.Graph != nil || cfg.Dataset == "" {
		return nil, false
	}
	return &Manifest{
		Name:             name,
		Dataset:          cfg.Dataset,
		Ranks:            cfg.Ranks,
		Scheme:           cfg.Scheme.String(),
		DelegateBytes:    cfg.DelegateBytes,
		Storage:          cfg.Storage.String(),
		MemBudgetBytes:   cfg.MemBudgetBytes,
		MaxConcurrent:    cfg.MaxConcurrent,
		QueueDepth:       cfg.QueueDepth,
		DefaultTimeoutMS: int64(cfg.DefaultTimeout / time.Millisecond),
		StallTimeoutMS:   int64(cfg.StallTimeout / time.Millisecond),
	}, true
}

// ManifestStore persists instance manifests in one directory — the
// daemon's -state-dir. All methods are safe for concurrent use in the
// sense the filesystem provides: saves are atomic renames, loads verify
// checksums, and a reader never observes a torn file.
type ManifestStore struct {
	dir string
}

// NewManifestStore opens (creating if needed) the state directory.
func NewManifestStore(dir string) (*ManifestStore, error) {
	if dir == "" {
		return nil, errors.New("serve: manifest store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ManifestStore{dir: dir}, nil
}

// Path returns the file the named instance's manifest persists to. The
// instance name is sanitized for the filesystem and disambiguated with an
// FNV hash of the raw name, so distinct names never collide.
func (ms *ManifestStore) Path(name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	if len(safe) > 64 {
		safe = safe[:64]
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return filepath.Join(ms.dir, fmt.Sprintf("%s-%016x.lcm", safe, h.Sum64()))
}

// Save persists the manifest atomically AND durably: the framed file is
// written to a temp name in the same directory, fsynced, renamed into
// place, and the directory itself is fsynced. The rename gives atomicity
// (a concurrent reader, or a crash mid-write, sees either the old
// manifest or the new one, never a torn hybrid); the two syncs give
// crash-consistency — without the file sync a power loss after the
// rename can surface a zero-length or garbage file (the rename commits
// the name before the data reaches disk), and without the directory sync
// the rename itself can be lost.
func (ms *ManifestStore) Save(m *Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 16+len(payload)+4)
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, ManifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, manifestCRC))

	path := ms.Path(m.Name)
	tmp, err := os.CreateTemp(ms.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(ms.dir)
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Filesystems that refuse to sync directories (some network mounts)
// degrade to rename-only atomicity rather than failing the save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Remove deletes the named instance's manifest. A missing file is not an
// error: removal is idempotent.
func (ms *ManifestStore) Remove(name string) error {
	err := os.Remove(ms.Path(name))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Load reads and verifies one manifest file.
func (ms *ManifestStore) Load(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &ManifestError{Path: path, Reason: err.Error(), Err: ErrManifestCorrupt}
	}
	if len(raw) < 20 {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("truncated: %d bytes", len(raw)), Err: ErrManifestCorrupt}
	}
	if *(*[8]byte)(raw[:8]) != manifestMagic {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("bad magic %q", raw[:8]), Err: ErrManifestCorrupt}
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != ManifestVersion {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("version %d (want %d)", v, ManifestVersion), Err: ErrManifestVersion}
	}
	length := binary.LittleEndian.Uint32(raw[12:])
	if uint64(len(raw)) != 16+uint64(length)+4 {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("framing: %d bytes for payload length %d", len(raw), length), Err: ErrManifestCorrupt}
	}
	payload := raw[16 : 16+length]
	stored := binary.LittleEndian.Uint32(raw[16+length:])
	if got := crc32.Checksum(payload, manifestCRC); got != stored {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", stored, got), Err: ErrManifestCorrupt}
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("payload: %v", err), Err: ErrManifestCorrupt}
	}
	return &m, nil
}

// LoadAll reads every manifest in the state directory, sorted by instance
// name. Unreadable files — corrupt, truncated, version-skewed — are
// returned as typed *ManifestError values alongside the good manifests:
// recovery reports them loudly and restores everything else.
func (ms *ManifestStore) LoadAll() ([]*Manifest, []*ManifestError) {
	entries, err := os.ReadDir(ms.dir)
	if err != nil {
		return nil, []*ManifestError{{Path: ms.dir, Reason: err.Error(), Err: ErrManifestCorrupt}}
	}
	var (
		manifests []*Manifest
		skipped   []*ManifestError
	)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lcm") {
			continue
		}
		m, err := ms.Load(filepath.Join(ms.dir, e.Name()))
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				me = &ManifestError{Path: e.Name(), Reason: err.Error(), Err: ErrManifestCorrupt}
			}
			skipped = append(skipped, me)
			continue
		}
		manifests = append(manifests, m)
	}
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Name < manifests[j].Name })
	return manifests, skipped
}
