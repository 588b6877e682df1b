//! Empty: targets that use proptest are not built by the offline recipe.
