package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// digest is the lower-case hex SHA-256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkDigest is a correctness gate: it fails unless data hashes to want.
func checkDigest(what string, data []byte, want string) error {
	if got := digest(data); got != want {
		return fmt.Errorf("%s: digest %s, want %s", what, got, want)
	}
	return nil
}
