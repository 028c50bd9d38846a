//! Sort-First Skyline (SFS), the paper's SFS-D baseline and the elimination loop of Adaptive
//! SFS.
//!
//! SFS (Chomicki, Godfrey, Gryz, Liang) presorts the points by a preference function `f` that
//! is monotone with respect to dominance (`p ≺ q ⇒ f(p) < f(q)`). After the sort a point can
//! only be dominated by points that appear *before* it, so one scan with a growing skyline
//! list suffices, and every point appended to the list is final — the algorithm is
//! progressive.
//!
//! **SFS-D** in the paper is exactly this algorithm run over the *whole dataset* with the
//! ranking induced by the query's implicit preference; it needs no preprocessing but pays the
//! full `O(N log N + N·n)` cost on every query. Adaptive SFS (Algorithm 4) runs the same scan
//! over the re-ranked template skyline, where only the rows it re-ranked may dominate later
//! ones. [`Scan`] is that one loop for both, and for the build-time scans.

use super::Work;
use crate::deadline::{Deadline, DEADLINE_CHECK_INTERVAL};
use crate::dominance::{Dominance, DominanceContext};
use crate::error::Result;
use crate::score::ScoreFn;
use crate::value::PointId;

/// Computes the skyline of `points` by presorting with `score` and draining a [`Scan`],
/// reporting its [`Work`]. The skyline comes back in scan (score) order.
///
/// `score` must be monotone w.r.t. the dominance relation of `ctx`; the [`ScoreFn`] built from
/// the same preference that produced `ctx` satisfies this by construction.
pub fn skyline_sorted_with_stats(
    ctx: &DominanceContext<'_>,
    score: &ScoreFn,
    points: &[PointId],
) -> (Vec<PointId>, Work) {
    let mut scan = Scan::presorted(ctx, &score.sort_by_score(ctx.dataset(), points));
    let skyline = scan.by_ref().collect();
    (skyline, scan.work)
}

/// The progressive SFS elimination scan: the one candidate loop behind SFS-D (batch and
/// stream), Adaptive SFS (batch and stream) and the build-time scans.
///
/// A scan owns its relation, its candidate order, its accepted window and its position.
/// Each candidate carries a flag saying whether it **may dominate later rows**; only flagged
/// candidates enter the window once accepted. SFS-D and the build scans flag every candidate
/// ([`Scan::presorted`]). Adaptive SFS flags its AFFECT members only: by the lemma in
/// `skyline_adaptive::asfs`, an unaffected row never dominates anything the scan still has
/// to decide.
///
/// Every accepted candidate is final, so [`Scan::next_row`] yields rows one at a time in
/// candidate order, and a batch answer is the drained scan. Counting follows one rule: a
/// rejected candidate adds the index of its first dominator plus one, an accepted one the
/// number of rows in the window so far. A scan whose window is still empty accepts without
/// probing it.
///
/// `D` is monomorphized per caller: an owned relation for a scan that outlives its opener
/// (the engine streams), a borrowed `&D` for the batch scans.
#[derive(Debug)]
pub struct Scan<D: Dominance> {
    dom: D,
    /// The candidates in scan order, each with its "may dominate later rows" flag.
    order: Vec<(PointId, bool)>,
    pos: usize,
    window: D::Window,
    /// Rows pushed to the window so far.
    pushed: u64,
    /// The work done so far. Callers may add counts of their own (Adaptive SFS records its
    /// AFFECT size here).
    pub work: Work,
}

impl<D: Dominance> Scan<D> {
    /// A scan over `order`. Its window is reset against `dom` when the first row enters it,
    /// so a scan that flags no candidate never touches it.
    pub fn new(dom: D, order: Vec<(PointId, bool)>) -> Self {
        Self {
            dom,
            order,
            pos: 0,
            window: D::Window::default(),
            pushed: 0,
            work: Work::default(),
        }
    }

    /// A plain SFS scan over candidates already sorted by a monotone score: every candidate
    /// may dominate later ones.
    pub fn presorted(dom: D, sorted: &[PointId]) -> Self {
        let order = sorted.iter().map(|&p| (p, true)).collect();
        Self::new(dom, order)
    }

    /// Walks the candidates to the next accepted one. `deadline` is polled once per
    /// [`DEADLINE_CHECK_INTERVAL`] candidates (one packed window block), before the block's
    /// first candidate is examined; on expiry the call fails with
    /// [`crate::SkylineError::DeadlineExceeded`] and the scan keeps its position, so a later
    /// call under a fresh deadline resumes where it stopped.
    pub fn next_row(&mut self, deadline: &Deadline) -> Result<Option<PointId>> {
        let bounded = deadline.is_bounded();
        while let Some(&(p, may_dominate)) = self.order.get(self.pos) {
            if bounded && self.pos.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                deadline.check()?;
            }
            self.pos += 1;
            self.work.candidates += 1;
            if self.pushed > 0 {
                if let Some(i) = self.dom.window_first_dominator(&mut self.window, p) {
                    self.work.dominance_tests += i as u64 + 1;
                    continue;
                }
                self.work.dominance_tests += self.pushed;
            }
            if may_dominate {
                if self.pushed == 0 {
                    self.dom.reset_window(&mut self.window);
                }
                self.dom.push_window(&mut self.window, p);
                self.pushed += 1;
            }
            self.work.rows_emitted += 1;
            return Ok(Some(p));
        }
        Ok(None)
    }

    /// Appends every remaining accepted row to `out`, in scan order. On deadline expiry the
    /// rows accepted so far are in `out` and the scan keeps its position.
    pub fn drain_into(&mut self, out: &mut Vec<PointId>, deadline: &Deadline) -> Result<()> {
        while let Some(p) = self.next_row(deadline)? {
            out.push(p);
        }
        Ok(())
    }

    /// Number of candidates examined so far (the scan's position in its order).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True once every candidate has been examined: no further row can be yielded.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.order.len()
    }
}

/// Pulls rows without a deadline.
impl<D: Dominance> Iterator for Scan<D> {
    type Item = PointId;

    fn next(&mut self) -> Option<PointId> {
        self.next_row(&Deadline::none())
            .expect("an unbounded deadline never expires")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bnl;
    use crate::dataset::{Dataset, DatasetBuilder, RowValue};
    use crate::order::{Preference, Template};
    use crate::schema::{Dimension, Schema};

    fn vacation_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group) in [
            (1600.0, 4.0, "T"),
            (2400.0, 1.0, "T"),
            (3000.0, 5.0, "H"),
            (3600.0, 4.0, "H"),
            (2400.0, 2.0, "M"),
            (3000.0, 3.0, "M"),
        ] {
            b.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()])
                .unwrap();
        }
        b.build().unwrap()
    }

    /// The relation of `text` on the hotel-group dimension and the rows sorted by its ranking.
    fn sorted_for<'a>(data: &'a Dataset, text: &str) -> (DominanceContext<'a>, Vec<PointId>) {
        let schema = data.schema();
        let pref = Preference::parse(schema, [("hotel-group", text)]).unwrap();
        let ctx = DominanceContext::for_query(data, &Template::empty(schema), &pref).unwrap();
        let score = ScoreFn::for_preference(schema, &pref).unwrap();
        let sorted = score.sort_by_score(data, &data.point_ids().collect::<Vec<_>>());
        (ctx, sorted)
    }

    #[test]
    fn sfs_matches_bnl_on_table2_preferences() {
        let data = vacation_data();
        for text in [
            "*",
            "T < M < *",
            "H < M < *",
            "H < M < T",
            "H < T < *",
            "M < *",
        ] {
            let (ctx, sorted) = sorted_for(&data, text);
            let mut got: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
            got.sort_unstable();
            assert_eq!(got, bnl::skyline(&ctx), "preference {text}");
        }
    }

    #[test]
    fn scan_presorted_is_progressive() {
        // With a monotone sort order, every emitted point must be a true skyline point even if
        // we stop the scan early.
        let data = vacation_data();
        let (ctx, sorted) = sorted_for(&data, "T < M < *");
        let full: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
        for k in 0..sorted.len() {
            let partial: Vec<PointId> = Scan::presorted(&ctx, &sorted[..k]).collect();
            assert!(
                partial.iter().all(|p| full.contains(p)),
                "prefix scan emitted a non-skyline point"
            );
        }
    }

    #[test]
    fn pulled_rows_match_the_drained_scan_and_stop_early() {
        let data = vacation_data();
        let (ctx, sorted) = sorted_for(&data, "T < M < *");
        let mut drained = Scan::presorted(&ctx, &sorted);
        let mut batch = Vec::new();
        drained.drain_into(&mut batch, &Deadline::none()).unwrap();
        // Pulling row by row sees exactly the drained emission sequence and counts.
        let mut pulled = Scan::presorted(&ctx, &sorted);
        let rows: Vec<PointId> = pulled.by_ref().collect();
        assert_eq!(rows, batch);
        assert_eq!(pulled.work, drained.work);
        assert!(pulled.is_exhausted());
        // Stopping after the first row leaves the rest of the candidates unexamined.
        let mut first = Scan::presorted(&ctx, &sorted);
        assert_eq!(first.next(), Some(batch[0]));
        assert_eq!(first.work.rows_emitted, 1);
        assert!(first.position() < sorted.len());
    }

    #[test]
    fn stats_reflect_scan_size() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let pref = Preference::none(1);
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        let (sky, work) =
            skyline_sorted_with_stats(&ctx, &score, &data.point_ids().collect::<Vec<_>>());
        assert_eq!(work.candidates, 6);
        assert_eq!(work.rows_emitted, sky.len() as u64);
        assert_eq!(sky.len(), 4);
    }

    #[test]
    fn only_flagged_rows_enter_the_window() {
        // a (id 0) dominates b (id 1). Flagged, it removes b; unflagged, it is accepted but
        // never tested against, so b survives — the contract Adaptive SFS relies on when it
        // flags only rows that can dominate.
        let data = vacation_data();
        let (ctx, _) = sorted_for(&data, "*");
        let flagged: Vec<PointId> = Scan::new(&ctx, vec![(0, true), (1, true)]).collect();
        assert_eq!(flagged, vec![0]);
        let mut scan = Scan::new(&ctx, vec![(0, false), (1, true)]);
        assert_eq!(scan.by_ref().collect::<Vec<_>>(), vec![0, 1]);
        // Neither accept was tested: the window was still empty both times.
        assert_eq!(scan.work.dominance_tests, 0);
    }

    #[test]
    fn expired_deadline_stops_the_scan() {
        let data = vacation_data();
        let (ctx, sorted) = sorted_for(&data, "*");
        let expected: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
        // Already expired: the very first block poll aborts.
        let expired = Deadline::within(std::time::Duration::ZERO);
        let mut out = Vec::new();
        assert_eq!(
            Scan::presorted(&ctx, &sorted)
                .drain_into(&mut out, &expired)
                .unwrap_err(),
            crate::SkylineError::DeadlineExceeded
        );
        assert!(out.is_empty());
        // A fired cancel token aborts the same way.
        let token = crate::CancelToken::new();
        token.cancel();
        let cancelled = Deadline::none().with_cancel(token);
        assert!(Scan::presorted(&ctx, &sorted).next_row(&cancelled).is_err());
        // A generous budget drains the whole answer.
        let generous = Deadline::within(std::time::Duration::from_secs(3600));
        Scan::presorted(&ctx, &sorted)
            .drain_into(&mut out, &generous)
            .unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn an_aborted_scan_resumes_at_its_position() {
        // 130 candidates: the block polls fall before candidates 0, 64 and 128.
        let schema = Schema::new(vec![Dimension::numeric("x"), Dimension::numeric("y")]).unwrap();
        let xs: Vec<f64> = (0..130).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -x).collect();
        let data = Dataset::from_columns(schema, vec![xs, ys], vec![]).unwrap();
        let ctx = DominanceContext::for_template(&data, &Template::empty(data.schema())).unwrap();
        let sorted: Vec<PointId> = data.point_ids().collect();
        let expected: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
        assert_eq!(expected.len(), 130, "an antichain: every row is final");

        let expired = Deadline::within(std::time::Duration::ZERO);
        let mut scan = Scan::presorted(&ctx, &sorted);
        assert!(scan.next_row(&expired).is_err());
        assert_eq!(scan.position(), 0, "nothing consumed on abort");
        let mut resumed: Vec<PointId> = scan.by_ref().take(70).collect();
        // Mid-block the poll is not due: the pull succeeds under the expired deadline.
        resumed.push(scan.next_row(&expired).unwrap().unwrap());
        assert_eq!(scan.position(), 71);
        let mut rest = Vec::new();
        assert!(scan.drain_into(&mut rest, &expired).is_err());
        assert_eq!(scan.position(), 128, "stopped at the next block boundary");
        resumed.extend(rest);
        resumed.extend(scan.by_ref());
        assert_eq!(resumed, expected);
        assert_eq!(scan.next_row(&expired).unwrap(), None);
    }

    #[test]
    fn empty_input_gives_empty_skyline() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let score = ScoreFn::default_ranking(data.schema());
        assert!(skyline_sorted_with_stats(&ctx, &score, &[]).0.is_empty());
        assert!(Scan::presorted(&ctx, &[]).is_exhausted());
    }
}
