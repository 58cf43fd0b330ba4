//! Fixture: `tagged-todo` — to-do markers must carry an issue tag.

/// Steps the model one epoch.
pub fn step() {
    // TODO: make this incremental //~ tagged-todo
    // FIXME the counter aliases on wrap //~ tagged-todo
    // TODO(#41): tagged, so no finding here
    /* a block comment's later lines count too:
       TODO: hoist the lookup */ //~ tagged-todo
    let _ = "// TODO: a string, not a comment";
    let _ = r#"a raw string: "// TODO" stays a string"#;
    let _ = ('"', "// TODO: a quote char opens no string");
    /* nested /* TODO(#7): tagged */ still a comment: FIXME */ //~ tagged-todo
}
