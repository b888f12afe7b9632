package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/summary"
)

// writeFile creates path and fills it through write, returning the first
// of write's, the buffer flush's and the file close's errors: a full disk
// may surface only at the flush or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readPackage(path string) (*core.TransferPackage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.DecodePackage(f)
}

func readSummary(path string) (*summary.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sum, err := summary.DecodeJSON(f)
	if err != nil {
		return nil, err
	}
	if err := sum.Validate(); err != nil {
		return nil, err
	}
	return sum, nil
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
