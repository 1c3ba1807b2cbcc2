//! The parent-side buffer accumulating one round's outgoing traffic.

use crate::slab::{LinkSlab, SlabWriter};
use crate::BcastLanes;
use cc_runtime::Word;
use std::sync::Arc;

/// One piece of a round's queued unicast traffic, in call order.
#[derive(Debug)]
enum Part {
    /// A ready-made slab from [`Pending::send_slab`].
    Slab(LinkSlab),
    /// Consecutive [`Pending::send`] calls: an append log of
    /// `(src, dst, len)` runs over one shared word buffer.
    Log {
        runs: Vec<(u32, u32, usize)>,
        words: Vec<Word>,
    },
}

impl Part {
    /// Visits this part's non-empty link runs in send order.
    fn for_each_run(&self, n: usize, mut f: impl FnMut(usize, usize, &[Word])) {
        match self {
            Part::Slab(slab) => slab.runs(0..n).for_each(|(src, dst, run)| f(src, dst, run)),
            Part::Log { runs, words } => {
                let mut at = 0;
                for &(src, dst, len) in runs {
                    f(src as usize, dst as usize, &words[at..at + len]);
                    at += len;
                }
            }
        }
    }
}

/// One round's queued traffic: the unicast words as a [`LinkSlab`] (or the
/// parts that become one at the barrier), plus per-source broadcast slab
/// lists.
///
/// The primitives hand over a whole round as one slab
/// ([`Pending::send_slab`]) and the barrier takes it back out untouched.
/// Word-at-a-time [`Pending::send`] calls land in an append log instead;
/// a round that mixes the two, or sends more than one slab, is merged by a
/// single counting sort at the barrier, with every link's words
/// concatenated in call order.
#[derive(Debug)]
pub(crate) struct Pending {
    n: usize,
    parts: Vec<Part>,
    /// `bcasts[src]` — broadcast slabs queued by `src`, in send order.
    bcasts: BcastLanes,
}

impl Pending {
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "transport needs at least one node");
        Self {
            n,
            parts: Vec::new(),
            bcasts: vec![Vec::new(); n],
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn send(&mut self, src: usize, dst: usize, words: &[Word]) {
        assert!(
            src < self.n && dst < self.n,
            "node index out of range (n={})",
            self.n
        );
        if words.is_empty() {
            return;
        }
        if !matches!(self.parts.last(), Some(Part::Log { .. })) {
            self.parts.push(Part::Log {
                runs: Vec::new(),
                words: Vec::new(),
            });
        }
        if let Some(Part::Log { runs, words: log }) = self.parts.last_mut() {
            runs.push((src as u32, dst as u32, words.len()));
            log.extend_from_slice(words);
        }
    }

    pub(crate) fn send_slab(&mut self, slab: LinkSlab) {
        slab.validate(self.n);
        if slab.total_words() > 0 {
            self.parts.push(Part::Slab(slab));
        }
    }

    pub(crate) fn broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        assert!(src < self.n, "node index out of range (n={})", self.n);
        if !slab.is_empty() {
            self.bcasts[src].push(slab);
        }
    }

    /// Removes and returns the round's unicast traffic as one slab, leaving
    /// the buffer ready for the next round. A round that was sent as a
    /// single slab is moved out as is.
    pub(crate) fn take_slab(&mut self) -> LinkSlab {
        let n = self.n;
        let parts = match <[Part; 1]>::try_from(std::mem::take(&mut self.parts)) {
            Ok([Part::Slab(slab)]) => return slab,
            Ok([log]) => vec![log],
            Err(parts) => parts,
        };
        let mut counts = vec![0usize; n * n];
        for part in &parts {
            part.for_each_run(n, |src, dst, run| counts[dst * n + src] += run.len());
        }
        let mut writer = SlabWriter::from_counts(n, counts);
        for part in &parts {
            part.for_each_run(n, |src, dst, run| writer.extend(src, dst, run));
        }
        writer.finish()
    }

    /// Removes and returns the queued broadcast slabs (`[src]`, send
    /// order), leaving the buffer ready for the next round.
    pub(crate) fn take_bcasts(&mut self) -> BcastLanes {
        std::mem::replace(&mut self.bcasts, vec![Vec::new(); self.n])
    }
}
