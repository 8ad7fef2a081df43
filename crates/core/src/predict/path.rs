//! Progress sequences (paper §II-B, Figs. 4–6).
//!
//! A *progress sequence* denotes one occurrence of an event in the
//! reference execution: the path from the terminal symbol up toward the
//! root of the grammar. PYTHIA-PREDICT tracks the application's position as
//! a set of candidate progress sequences; a sequence may be *partial* (its
//! top frame is not the root) when the predictor started mid-stream or
//! recovered from an unexpected event — partial sequences are extended
//! upward lazily as more events disambiguate the position (paper §II-B2).

use crate::grammar::{Grammar, RuleId};
use crate::timing::{ContextFrame, TimingModel};

/// Repetition state of one frame: how many repetitions of the symbol use
/// have *completed* at this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rep {
    /// The frame was entered at repetition 0 (start offset known); `r`
    /// repetitions have completed.
    Known(u32),
    /// The frame was entered mid-run at an unknown offset (seeded or
    /// extended upward); `k ≥ 1` repetitions have completed since entry.
    /// The true start offset is uniform over the possibilities, which is
    /// where prediction branching weights come from.
    Unknown(u32),
}

/// One level of a progress sequence: a symbol use (`pos`-th entry of
/// `rule`'s body) plus its repetition state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame {
    /// Rule whose body contains the use.
    pub rule: RuleId,
    /// Index of the use within the rule body.
    pub pos: usize,
    /// Repetition state.
    pub rep: Rep,
}

/// A (possibly partial) progress sequence. Frames are stored outermost
/// first; the last frame always points at a terminal use.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    /// Frames, outermost first.
    pub frames: Vec<Frame>,
}

impl Path {
    /// A fresh partial path seeded at one terminal occurrence whose start
    /// offset within its repetition run is unknown; the observed event
    /// counts as one completed repetition.
    pub fn seed(rule: RuleId, pos: usize) -> Self {
        let mut path = Path::default();
        path.reseed(rule, pos);
        path
    }

    /// Turns this path into [`Path::seed`]`(rule, pos)`, keeping its frame
    /// buffer.
    pub(crate) fn reseed(&mut self, rule: RuleId, pos: usize) {
        self.frames.clear();
        self.frames.push(Frame {
            rule,
            pos,
            rep: Rep::Unknown(1),
        });
    }

    /// The innermost frame (terminal level).
    pub fn innermost(&self) -> &Frame {
        self.frames.last().expect("path has no frames")
    }

    /// Whether the path is anchored at the grammar root.
    pub fn is_anchored(&self, grammar: &Grammar) -> bool {
        self.frames
            .first()
            .is_some_and(|f| f.rule == grammar.root())
    }

    /// Path depth (number of frames).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The terminal this path points at.
    pub fn terminal(&self, grammar: &Grammar) -> crate::event::EventId {
        let f = self.innermost();
        grammar.rule(f.rule).body[f.pos]
            .symbol
            .terminal()
            .expect("innermost frame must point at a terminal")
    }

    /// Context frames for the timing model — `(rule, pos)` innermost first,
    /// the [`TimingModel::MAX_DEPTH`] its keys reach at most — and how many
    /// of them this path has.
    pub fn context_frames(&self) -> ([ContextFrame; TimingModel::MAX_DEPTH], usize) {
        let mut out = [(RuleId(0), 0); TimingModel::MAX_DEPTH];
        for (o, f) in out.iter_mut().zip(self.frames.iter().rev()) {
            *o = (f.rule, f.pos);
        }
        (out, self.frames.len().min(TimingModel::MAX_DEPTH))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::grammar::builder::GrammarBuilder;

    fn grammar_of(seq: &[u32]) -> Grammar {
        let mut b = GrammarBuilder::new();
        for &s in seq {
            b.push(EventId(s));
        }
        b.into_grammar().compact()
    }

    #[test]
    fn seed_path_shape() {
        let g = grammar_of(&[0, 1, 0, 1, 0, 1]);
        let uses = g.terminal_uses(EventId(0));
        assert!(!uses.is_empty());
        let p = Path::seed(uses[0].rule, uses[0].pos);
        assert_eq!(p.depth(), 1);
        assert_eq!(p.terminal(&g), EventId(0));
        assert_eq!(p.innermost().rep, Rep::Unknown(1));
    }

    #[test]
    fn context_frames_innermost_first() {
        let frame = |rule, pos| Frame {
            rule: RuleId(rule),
            pos,
            rep: Rep::Known(0),
        };
        let p = Path {
            frames: vec![frame(0, 3), frame(2, 1)],
        };
        let (frames, n) = p.context_frames();
        assert_eq!(frames[..n], [(RuleId(2), 1), (RuleId(0), 3)]);
        // A deeper path keeps its innermost frames.
        let deep = Path {
            frames: (0..6).map(|r| frame(r, r as usize)).collect(),
        };
        let (frames, n) = deep.context_frames();
        let expected = [5u32, 4, 3, 2].map(|r| (RuleId(r), r as usize));
        assert_eq!((frames, n), (expected, TimingModel::MAX_DEPTH));
    }

    #[test]
    fn anchored_detection() {
        let g = grammar_of(&[0, 1, 2, 0, 1, 2]);
        let root_path = Path {
            frames: vec![Frame {
                rule: g.root(),
                pos: 0,
                rep: Rep::Known(0),
            }],
        };
        assert!(root_path.is_anchored(&g));
        let uses = g.terminal_uses(EventId(1));
        // In this grammar the terminal lives inside a sub-rule.
        let partial = Path::seed(uses[0].rule, uses[0].pos);
        let _ = partial.is_anchored(&g); // must not panic either way
    }
}
