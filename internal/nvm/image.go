package nvm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Image serialization: a device's contents can be saved to and restored
// from a stream, so crash images survive process restarts (and can be
// shipped to other machines for recovery analysis).
//
// Format (little-endian):
//
//	magic   uint64  "THOTHNVM" tag
//	version uint32
//	block   uint32  block size in bytes
//	cap     uint64  capacity in bytes
//	count   uint64  number of written blocks
//	count × { idx uint64, contents [block]byte }
//
// The write and read counters are not serialized: they are measurement
// state, not device contents.
const (
	imageMagic   = 0x5448_4F54_484E_564D // "THOTHNVM"
	imageVersion = 1
)

// Save writes the device image to w.
func (d *Device) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 32)
	binary.LittleEndian.PutUint64(hdr[0:8], imageMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], imageVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(d.blockSize))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(d.capacity))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(d.writtenCount()))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("nvm: save header: %w", err)
	}
	var ib [8]byte
	var werr error
	d.forEachWrittenIdx(0, d.capacity/int64(d.blockSize), func(idx int64) {
		if werr != nil {
			return
		}
		binary.LittleEndian.PutUint64(ib[:], uint64(idx))
		if _, err := bw.Write(ib[:]); err != nil {
			werr = fmt.Errorf("nvm: save block index: %w", err)
			return
		}
		if _, err := bw.Write(d.pageOf(idx).blockSlice(idx, d.blockSize)); err != nil {
			werr = fmt.Errorf("nvm: save block: %w", err)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// LoadImage reconstructs a device from a stream written by Save.
func LoadImage(r io.Reader) (*Device, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 32)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("nvm: load header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != imageMagic {
		return nil, fmt.Errorf("nvm: not a device image (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != imageVersion {
		return nil, fmt.Errorf("nvm: unsupported image version %d", v)
	}
	blockSize := int(binary.LittleEndian.Uint32(hdr[12:16]))
	capacity := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	count := binary.LittleEndian.Uint64(hdr[24:32])
	if blockSize <= 0 || capacity <= 0 || capacity%int64(blockSize) != 0 {
		return nil, fmt.Errorf("nvm: image geometry invalid (block=%d cap=%d)", blockSize, capacity)
	}
	maxBlocks := uint64(capacity / int64(blockSize))
	if count > maxBlocks {
		return nil, fmt.Errorf("nvm: image claims %d blocks, capacity holds %d", count, maxBlocks)
	}
	d := New(capacity, blockSize)
	var ib [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, ib[:]); err != nil {
			return nil, fmt.Errorf("nvm: load block index: %w", err)
		}
		idx := int64(binary.LittleEndian.Uint64(ib[:]))
		if idx < 0 || idx >= int64(maxBlocks) {
			return nil, fmt.Errorf("nvm: block index %d out of range", idx)
		}
		b := make([]byte, blockSize)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("nvm: load block contents: %w", err)
		}
		d.setBlock(idx, b)
	}
	return d, nil
}
