// Package docs holds no production code: it exists so that the
// repository's documentation is tested like code. Its tests walk every
// Markdown file in the repo and fail on dead relative links and on
// backticked repository paths that no longer exist — a README that points
// at a moved or deleted file is a bug, and `go test ./...` (and the
// explicit CI docs step) catches it.
package docs
