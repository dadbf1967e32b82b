//! The `side × side` grid of cell values.

use crate::error::MeshError;
use crate::order::TargetOrder;
use crate::pos::Pos;
use std::fmt;

/// A square grid of values, stored row-major.
///
/// `Grid` is the state of the mesh: cell `(r, c)` holds `data[r*side + c]`.
/// Values only move via comparator exchanges (see [`crate::engine`]), so the
/// multiset of values is invariant over any simulation — a property the
/// tests rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Grid<T> {
    side: usize,
    data: Vec<T>,
}

impl<T> Grid<T> {
    /// Builds a grid from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ZeroSide`] for `side == 0` and
    /// [`MeshError::BadDimensions`] when `data.len() != side * side`.
    pub fn from_rows(side: usize, data: Vec<T>) -> Result<Self, MeshError> {
        if side == 0 {
            return Err(MeshError::ZeroSide);
        }
        if data.len() != side * side {
            return Err(MeshError::BadDimensions { side, len: data.len() });
        }
        Ok(Grid { side, data })
    }

    /// Builds a grid by evaluating `f` at every position, row-major.
    pub fn from_fn(side: usize, mut f: impl FnMut(Pos) -> T) -> Result<Self, MeshError> {
        if side == 0 {
            return Err(MeshError::ZeroSide);
        }
        let mut data = Vec::with_capacity(side * side);
        for row in 0..side {
            for col in 0..side {
                data.push(f(Pos::new(row, col)));
            }
        }
        Ok(Grid { side, data })
    }

    /// Mesh side length (`√N` in the paper).
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total number of cells (`N` in the paper).
    #[inline]
    pub fn cells(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major index of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the coordinates are out of range; the
    /// subsequent slice index panics in all builds.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> u32 {
        debug_assert!(row < self.side && col < self.side);
        (row * self.side + col) as u32
    }

    /// Reference to the value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> &T {
        &self.data[row * self.side + col]
    }

    /// Reference to the value at a [`Pos`].
    #[inline]
    pub fn at(&self, pos: Pos) -> &T {
        self.get(pos.row, pos.col)
    }

    /// Mutable reference to the value at `(row, col)`.
    #[inline]
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut T {
        &mut self.data[row * self.side + col]
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The backing row-major slice, mutably. Exposed for the engine; user
    /// code should prefer comparator application so that value-conservation
    /// invariants hold.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning the row-major data.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterator over one row, left to right.
    pub fn row(&self, row: usize) -> impl Iterator<Item = &T> + '_ {
        let start = row * self.side;
        self.data[start..start + self.side].iter()
    }

    /// Iterator over one column, top to bottom.
    pub fn column(&self, col: usize) -> impl Iterator<Item = &T> + '_ {
        (0..self.side).map(move |r| &self.data[r * self.side + col])
    }

    /// Iterator over `(Pos, &T)` pairs in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (Pos, &T)> + '_ {
        let side = self.side;
        self.data.iter().enumerate().map(move |(i, v)| (Pos::from_flat(i, side), v))
    }

    /// Reads the grid in the rank order of `order`, i.e. the sequence the
    /// sort is supposed to make non-decreasing.
    pub fn read_in_order(&self, order: TargetOrder) -> Vec<&T> {
        (0..self.cells()).map(|rank| self.at(order.pos_of_rank(rank, self.side))).collect()
    }
}

impl<T: Ord> Grid<T> {
    /// `true` when the grid is sorted with respect to `order`: reading the
    /// cells in rank order yields a non-decreasing sequence.
    ///
    /// Works for arbitrary values including duplicates (the 0–1 matrices of
    /// the paper's analysis), not just permutations.
    pub fn is_sorted(&self, order: TargetOrder) -> bool {
        self.first_order_inversion(order).is_none()
    }

    /// Rank of the first adjacent inversion along the rank order — the
    /// smallest `r` such that the value of rank-`r`'s cell exceeds the
    /// value of rank-`r+1`'s cell — or `None` when the grid is sorted.
    ///
    /// Scans with early exit, so far-from-sorted grids answer in O(1)
    /// expected probes. The incremental counterpart is
    /// [`crate::sortedness::InversionTracker::first_inversion`].
    pub fn first_order_inversion(&self, order: TargetOrder) -> Option<usize> {
        let side = self.side;
        let mut prev: Option<&T> = None;
        for rank in 0..self.cells() {
            let v = self.at(order.pos_of_rank(rank, side));
            if let Some(p) = prev {
                if p > v {
                    return Some(rank - 1);
                }
            }
            prev = Some(v);
        }
        None
    }

    /// [`Grid::first_order_inversion`] specialized to scan the backing
    /// storage contiguously — the sortedness probe of the hybrid engine's
    /// scan mode ([`crate::CycleSchedule::run_until_sorted`]).
    ///
    /// Row-major rank order coincides with flat storage order, so the scan
    /// is a single `windows(2)` walk; snake order scans each row in its
    /// reading direction plus the row-boundary pairs. Either way every
    /// probe touches adjacent memory, where the generic walk pays
    /// coordinate arithmetic or a table indirection per rank. Same answer
    /// as [`Grid::first_order_inversion`] on every input.
    pub fn first_order_inversion_fast(&self, order: TargetOrder) -> Option<usize> {
        let side = self.side;
        let data = &self.data;
        match order {
            TargetOrder::RowMajor => data.windows(2).position(|w| w[0] > w[1]),
            TargetOrder::Snake => {
                for r in 0..side {
                    let base = r * side;
                    if r > 0 {
                        // Boundary pair (base - 1, base): rows r-1 and r
                        // meet at the bend column.
                        let col = bend_col(r - 1, side);
                        if data[base - side + col] > data[base + col] {
                            return Some(base - 1);
                        }
                    }
                    let row = &data[base..base + side];
                    if r % 2 == 0 {
                        if let Some(c) = row.windows(2).position(|w| w[0] > w[1]) {
                            return Some(base + c);
                        }
                    } else if row.windows(2).any(|w| w[0] < w[1]) {
                        // Odd rows read right→left: window c holds the rank
                        // pair (side-2-c, side-1-c), so the first inversion
                        // in rank order is the *last* ascending window.
                        let c = row.windows(2).rposition(|w| w[0] < w[1]).expect("found above");
                        return Some(base + side - 2 - c);
                    }
                }
                None
            }
        }
    }

    /// Whether the adjacent rank pair `(k, k+1)` is inverted — the O(1)
    /// witness probe of the hybrid engine: as long as one pair is known to
    /// be inverted, the grid is unsorted and no scan is needed.
    ///
    /// `k` must be below `cells() - 1`.
    pub fn order_pair_inverted(&self, order: TargetOrder, k: usize) -> bool {
        let side = self.side;
        let a = order.pos_of_rank(k, side).flat(side);
        let b = order.pos_of_rank(k + 1, side).flat(side);
        self.data[a] > self.data[b]
    }

    /// Finds *some* inverted adjacent rank pair at index `k` or later —
    /// not necessarily the first — scanning contiguously like
    /// [`Grid::first_order_inversion_fast`]. How the hybrid engine
    /// replaces a witness pair that a step fixed: inversions cluster near
    /// the old witness, so this usually answers after a short local walk.
    ///
    /// `None` guarantees no pair at index `k` or later is inverted (snake
    /// scans restart at `k`'s row boundary, so the guarantee actually
    /// covers slightly more); `Some(j)` is a genuinely inverted pair but
    /// `j` may be smaller than `k`.
    pub fn find_order_inversion_from(&self, order: TargetOrder, k: usize) -> Option<usize> {
        let side = self.side;
        let data = &self.data;
        match order {
            TargetOrder::RowMajor => data[k..].windows(2).position(|w| w[0] > w[1]).map(|c| k + c),
            TargetOrder::Snake => {
                for r in k / side..side {
                    let base = r * side;
                    if r > k / side {
                        let col = bend_col(r - 1, side);
                        if data[base - side + col] > data[base + col] {
                            return Some(base - 1);
                        }
                    }
                    let row = &data[base..base + side];
                    if r % 2 == 0 {
                        if let Some(c) = row.windows(2).position(|w| w[0] > w[1]) {
                            return Some(base + c);
                        }
                    } else if let Some(c) = row.windows(2).position(|w| w[0] < w[1]) {
                        return Some(base + side - 2 - c);
                    }
                }
                None
            }
        }
    }

    /// Number of adjacent inversions along the rank order — `0` iff sorted.
    /// Useful as a progress metric in traces and examples.
    pub fn order_inversions(&self, order: TargetOrder) -> usize {
        let seq = self.read_in_order(order);
        seq.windows(2).filter(|w| w[0] > w[1]).count()
    }

    /// [`Grid::order_inversions`] counted over the backing storage
    /// contiguously, like [`Grid::first_order_inversion_fast`] scans it:
    /// a `windows(2)` count per row in its reading direction plus the
    /// snake's row-boundary pairs. The resilient kernel runner's watchdog
    /// reads it once per cycle. Same count on every input.
    pub fn order_inversions_fast(&self, order: TargetOrder) -> usize {
        let side = self.side;
        let data = &self.data;
        match order {
            TargetOrder::RowMajor => data.windows(2).filter(|w| w[0] > w[1]).count(),
            TargetOrder::Snake => {
                let mut count = 0;
                for (r, row) in data.chunks_exact(side).enumerate() {
                    count += if r % 2 == 0 {
                        row.windows(2).filter(|w| w[0] > w[1]).count()
                    } else {
                        row.windows(2).filter(|w| w[0] < w[1]).count()
                    };
                    if r > 0 {
                        let col = bend_col(r - 1, side);
                        count += usize::from(data[(r - 1) * side + col] > row[col]);
                    }
                }
                count
            }
        }
    }
}

impl<T: Ord + Clone> Grid<T> {
    /// A new grid holding the same multiset of values, arranged sorted with
    /// respect to `order` — the unique target state of a sort.
    pub fn sorted_copy(&self, order: TargetOrder) -> Grid<T> {
        let mut values: Vec<T> = self.data.clone();
        values.sort();
        let side = self.side;
        let mut data: Vec<Option<T>> = vec![None; self.cells()];
        for (rank, v) in values.into_iter().enumerate() {
            let pos = order.pos_of_rank(rank, side);
            data[pos.flat(side)] = Some(v);
        }
        Grid { side, data: data.into_iter().map(|o| o.expect("all cells filled")).collect() }
    }
}

impl<T: fmt::Display> Grid<T> {
    /// Renders the grid as `side` lines of space-separated values — handy in
    /// examples and failing-test output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in 0..self.side {
            let row: Vec<String> = self.row(r).map(ToString::to_string).collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
        out
    }
}

/// Column where snake rows `r` and `r+1` meet (the "bend"): the right edge
/// after an even row, the left edge after an odd one.
#[inline]
fn bend_col(r: usize, side: usize) -> usize {
    if r % 2 == 0 {
        side - 1
    } else {
        0
    }
}

/// Builds the grid holding the identity permutation `0..side²` arranged
/// sorted in `order` — i.e. the fixed point every run should reach when the
/// input is a permutation of `0..side²`.
pub fn sorted_permutation_grid(side: usize, order: TargetOrder) -> Grid<u32> {
    Grid::from_fn(side, |p| order.rank_of(p, side) as u32).expect("side >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_checks_dimensions() {
        assert_eq!(
            Grid::from_rows(2, vec![1]).unwrap_err(),
            MeshError::BadDimensions { side: 2, len: 1 }
        );
        assert_eq!(Grid::<u32>::from_rows(0, vec![]).unwrap_err(), MeshError::ZeroSide);
        assert!(Grid::from_rows(2, vec![1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn indexing_round_trip() {
        let g = Grid::from_fn(3, |p| p.row * 10 + p.col).unwrap();
        assert_eq!(*g.get(0, 0), 0);
        assert_eq!(*g.get(2, 1), 21);
        assert_eq!(*g.at(Pos::new(1, 2)), 12);
        assert_eq!(g.index(2, 1), 7);
    }

    #[test]
    fn rows_and_columns() {
        let g = Grid::from_rows(3, (0..9).collect::<Vec<i32>>()).unwrap();
        assert_eq!(g.row(1).copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(g.column(2).copied().collect::<Vec<_>>(), vec![2, 5, 8]);
    }

    #[test]
    fn enumerate_is_row_major() {
        let g = Grid::from_rows(2, vec![10, 20, 30, 40]).unwrap();
        let items: Vec<(Pos, i32)> = g.enumerate().map(|(p, v)| (p, *v)).collect();
        assert_eq!(
            items,
            vec![
                (Pos::new(0, 0), 10),
                (Pos::new(0, 1), 20),
                (Pos::new(1, 0), 30),
                (Pos::new(1, 1), 40)
            ]
        );
    }

    #[test]
    fn sorted_detection_row_major() {
        let g = Grid::from_rows(2, vec![0, 1, 2, 3]).unwrap();
        assert!(g.is_sorted(TargetOrder::RowMajor));
        assert!(!g.is_sorted(TargetOrder::Snake));
        let g = Grid::from_rows(2, vec![0, 1, 3, 2]).unwrap();
        assert!(!g.is_sorted(TargetOrder::RowMajor));
        assert!(g.is_sorted(TargetOrder::Snake));
    }

    #[test]
    fn sorted_detection_with_duplicates() {
        // 0-1 matrix sorted row-major: all zeros before all ones.
        let g = Grid::from_rows(2, vec![0, 0, 1, 1]).unwrap();
        assert!(g.is_sorted(TargetOrder::RowMajor));
        assert!(g.is_sorted(TargetOrder::Snake));
        let g = Grid::from_rows(2, vec![0, 1, 0, 1]).unwrap();
        assert!(!g.is_sorted(TargetOrder::RowMajor));
    }

    #[test]
    fn sorted_copy_matches_target() {
        let g = Grid::from_rows(2, vec![3u32, 0, 2, 1]).unwrap();
        let rm = g.sorted_copy(TargetOrder::RowMajor);
        assert_eq!(rm.as_slice(), &[0, 1, 2, 3]);
        let sn = g.sorted_copy(TargetOrder::Snake);
        assert_eq!(sn.as_slice(), &[0, 1, 3, 2]);
        assert!(sn.is_sorted(TargetOrder::Snake));
    }

    #[test]
    fn sorted_permutation_grid_is_sorted() {
        for side in 1..6 {
            for order in [TargetOrder::RowMajor, TargetOrder::Snake] {
                let g = sorted_permutation_grid(side, order);
                assert!(g.is_sorted(order), "side {side} order {order:?}");
            }
        }
    }

    #[test]
    fn inversions_metric() {
        let g = Grid::from_rows(2, vec![0, 1, 2, 3]).unwrap();
        assert_eq!(g.order_inversions(TargetOrder::RowMajor), 0);
        let g = Grid::from_rows(2, vec![3, 2, 1, 0]).unwrap();
        assert_eq!(g.order_inversions(TargetOrder::RowMajor), 3);
    }

    #[test]
    fn first_order_inversion_rank() {
        let g = Grid::from_rows(2, vec![0, 1, 3, 2]).unwrap();
        assert_eq!(g.first_order_inversion(TargetOrder::RowMajor), Some(2));
        assert_eq!(g.first_order_inversion(TargetOrder::Snake), None);
        let g = Grid::from_rows(2, vec![1, 0, 2, 3]).unwrap();
        assert_eq!(g.first_order_inversion(TargetOrder::RowMajor), Some(0));
    }

    #[test]
    fn fast_inversion_scan_matches_generic_walk() {
        // Seeded random grids across sizes and both orders, plus sorted
        // and reversed extremes: the contiguous scan must agree with the
        // generic per-rank walk on every one, including duplicate values.
        let mut rng = crate::Rng::seed_from_u64(0x9E37_79B9);
        for side in [1usize, 2, 3, 4, 5, 8] {
            let n = side * side;
            for order in [TargetOrder::RowMajor, TargetOrder::Snake] {
                for _ in 0..50 {
                    let data: Vec<u32> = (0..n).map(|_| rng.range(0..7) as u32).collect();
                    let g = Grid::from_rows(side, data).unwrap();
                    assert_eq!(
                        g.first_order_inversion_fast(order),
                        g.first_order_inversion(order),
                        "side {side} {order:?}\n{}",
                        g.render()
                    );
                }
                let sorted = sorted_permutation_grid(side, order);
                assert_eq!(sorted.first_order_inversion_fast(order), None);
                let rev = Grid::from_rows(side, (0..n as u32).rev().collect()).unwrap();
                assert_eq!(rev.first_order_inversion_fast(order), rev.first_order_inversion(order));
            }
        }
    }

    #[test]
    fn fast_inversion_count_matches_generic_count() {
        let mut rng = crate::Rng::seed_from_u64(0xC0FF_EE11);
        for side in [1usize, 2, 3, 4, 5, 8, 9] {
            let n = side * side;
            for order in [TargetOrder::RowMajor, TargetOrder::Snake] {
                for _ in 0..50 {
                    let data: Vec<u32> = (0..n).map(|_| rng.range(0..7) as u32).collect();
                    let g = Grid::from_rows(side, data).unwrap();
                    assert_eq!(
                        g.order_inversions_fast(order),
                        g.order_inversions(order),
                        "side {side} {order:?}\n{}",
                        g.render()
                    );
                }
                assert_eq!(sorted_permutation_grid(side, order).order_inversions_fast(order), 0);
                let rev = Grid::from_rows(side, (0..n as u32).rev().collect()).unwrap();
                assert_eq!(rev.order_inversions_fast(order), rev.order_inversions(order));
            }
        }
    }

    #[test]
    fn witness_probe_and_local_scan_are_sound() {
        // The hybrid engine's primitives against brute force: the pair
        // probe must equal a direct rank-order comparison, and the local
        // scan must return a genuinely inverted pair — or, when `None`,
        // there must be no inversion at or after the start index.
        let mut rng = crate::Rng::seed_from_u64(0xDEAD_BEEF);
        for side in [2usize, 3, 4, 5, 8] {
            let n = side * side;
            for order in [TargetOrder::RowMajor, TargetOrder::Snake] {
                for _ in 0..30 {
                    let data: Vec<u32> = (0..n).map(|_| rng.range(0..5) as u32).collect();
                    let g = Grid::from_rows(side, data).unwrap();
                    let seq = g.read_in_order(order);
                    for k in 0..n - 1 {
                        assert_eq!(
                            g.order_pair_inverted(order, k),
                            seq[k] > seq[k + 1],
                            "probe side {side} {order:?} k {k}"
                        );
                        match g.find_order_inversion_from(order, k) {
                            Some(j) => assert!(
                                seq[j] > seq[j + 1],
                                "side {side} {order:?} k {k}: pair {j} not inverted"
                            ),
                            None => assert!(
                                (k..n - 1).all(|j| seq[j] <= seq[j + 1]),
                                "side {side} {order:?} k {k}: missed an inversion"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn render_layout() {
        let g = Grid::from_rows(2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(g.render(), "1 2\n3 4\n");
    }

    #[test]
    fn read_in_order_snake_reverses_even_paper_rows() {
        let g = Grid::from_rows(3, (0..9).collect::<Vec<i32>>()).unwrap();
        let seq: Vec<i32> = g.read_in_order(TargetOrder::Snake).into_iter().copied().collect();
        // Row 0 left→right, row 1 right→left, row 2 left→right.
        assert_eq!(seq, vec![0, 1, 2, 5, 4, 3, 6, 7, 8]);
    }
}
