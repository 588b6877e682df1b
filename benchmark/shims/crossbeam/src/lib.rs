//! Empty stand-in: `mltrace-core` declares `crossbeam` but uses nothing
//! from it, so the shim only has to exist for dependency resolution.
