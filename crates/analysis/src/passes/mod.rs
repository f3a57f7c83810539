//! The two lint passes plus the annotation meta-checks.

pub mod codec_sym;
pub mod lock_discipline;

use crate::lexer::DirectiveKind;
use crate::report::{Finding, Pass};
use crate::source::SourceFile;

/// Which passes run on a file (the annotation checks always run — they
/// are driven entirely by in-file annotations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassSet {
    /// Codec symmetry (codec-bearing modules).
    pub codec: bool,
    /// Lock discipline (server connection/session plumbing).
    pub lock: bool,
}

/// Run every applicable pass over one parsed file.
pub fn run_all(file: &SourceFile, set: PassSet, out: &mut Vec<Finding>) {
    annotation_checks(file, out);
    if set.codec {
        codec_sym::run(file, out);
    }
    if set.lock {
        lock_discipline::run(file, out);
    }
}

/// The annotations themselves are linted: malformed `lint:` comments,
/// unknown pass names, and `allow`s with no checked-in reason are all
/// findings — a suppression must never be cheaper than a fix.
fn annotation_checks(file: &SourceFile, out: &mut Vec<Finding>) {
    for d in &file.directives {
        match &d.kind {
            DirectiveKind::Malformed(text) => out.push(Finding {
                pass: Pass::Annotation,
                path: file.path.clone(),
                line: d.line,
                message: format!("malformed `lint:` directive: `lint:{text}`"),
            }),
            DirectiveKind::Allow { pass, reason } => {
                if Pass::from_key(pass).is_none() {
                    out.push(Finding {
                        pass: Pass::Annotation,
                        path: file.path.clone(),
                        line: d.line,
                        message: format!("`lint:allow({pass})` names an unknown pass"),
                    });
                }
                if reason.trim().is_empty() {
                    out.push(Finding {
                        pass: Pass::Annotation,
                        path: file.path.clone(),
                        line: d.line,
                        message: format!(
                            "`lint:allow({pass})` has no reason — write `: <why>` after it"
                        ),
                    });
                }
            }
            DirectiveKind::LockOrder(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasonless_allow_and_unknown_pass_are_findings() {
        // `hot-path` and `panic` are clippy lints, not passes: their
        // directives are findings, not silent no-ops.
        let f = SourceFile::parse(
            "x.rs",
            "// lint:allow(lock)\n// lint:allow(panic): reason\n// lint:hot-path\n",
        );
        let mut out = Vec::new();
        run_all(&f, PassSet::default(), &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|x| x.pass == Pass::Annotation));
    }
}
