//! Empty: targets that use criterion are not built by the offline recipe.
