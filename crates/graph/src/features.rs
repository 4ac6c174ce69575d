//! Node feature matrices and labels.
//!
//! Features are dense row-major `f32` matrices — the layout every system
//! in the paper ships over PCIe/NVLink. Labels are class ids used by the
//! convergence experiment (Fig. 9).

use crate::NodeId;
use ds_rng::Rng;
use ds_simgpu::par;

/// A dense row-major node-feature matrix.
#[derive(Clone, Debug)]
pub struct Features {
    dim: usize,
    data: Vec<f32>,
}

impl Features {
    /// Wraps raw data; `data.len()` must be a multiple of `dim`.
    pub fn from_raw(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0);
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        Features { dim, data }
    }

    /// All-zero features for `n` nodes.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Features {
            dim,
            data: vec![0.0; n * dim],
        }
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Feature row of node `v`.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[f32] {
        let off = v as usize * self.dim;
        &self.data[off..off + self.dim]
    }

    /// Mutable feature row.
    #[inline]
    pub fn row_mut(&mut self, v: NodeId) -> &mut [f32] {
        let off = v as usize * self.dim;
        &mut self.data[off..off + self.dim]
    }

    /// Flat data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consumes into the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Bytes per feature row (what one feature fetch moves).
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        (self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// Total size in bytes.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Gathers rows for `nodes` into a fresh matrix (the CPU-side analogue
    /// of the feature-loading kernel).
    pub fn gather(&self, nodes: &[NodeId]) -> Features {
        let dim = self.dim;
        let mut data = vec![0.0f32; nodes.len() * dim];
        par::chunk_map_mut(&mut data, dim, |i, dst| {
            dst.copy_from_slice(self.row(nodes[i]));
        });
        Features { dim, data }
    }

    /// Community-structured features: node `v` in community `c` gets the
    /// community centroid plus Gaussian noise. With assortative graphs
    /// this yields a learnable node-classification task (the Fig. 9
    /// convergence experiment depends on actual learning happening).
    pub fn community_features(
        communities: &[u32],
        num_communities: usize,
        dim: usize,
        noise: f32,
        seed: u64,
    ) -> Features {
        let mut crng = Rng::seed_from_u64(seed);
        let centroids: Vec<f32> = (0..num_communities * dim)
            .map(|_| crng.gen_range(-1.0..1.0f32))
            .collect();
        let mut data = vec![0.0f32; communities.len() * dim];
        par::chunk_map_mut(&mut data, dim, |v, dst| {
            let c = communities[v] as usize % num_communities;
            let mut rng = Rng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0xc2b2_ae35));
            for (j, x) in dst.iter_mut().enumerate() {
                *x = centroids[c * dim + j] + noise * rng.gen_range(-1.0..1.0f32);
            }
        });
        Features { dim, data }
    }
}

impl crate::wire::Wire for Features {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dim.encode(out);
        self.data.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, crate::wire::WireError> {
        use crate::wire::WireError;
        let dim = usize::decode(buf)?;
        let data = Vec::<f32>::decode(buf)?;
        if dim == 0 || data.len() % dim != 0 {
            return Err(WireError::Invalid("features: data not a multiple of dim"));
        }
        Ok(Features { dim, data })
    }
}

/// Node class labels.
#[derive(Clone, Debug)]
pub struct Labels {
    num_classes: usize,
    data: Vec<u32>,
}

impl Labels {
    /// Wraps label data; every label must be `< num_classes`.
    pub fn from_raw(num_classes: usize, data: Vec<u32>) -> Self {
        assert!(data.iter().all(|&c| (c as usize) < num_classes));
        Labels { num_classes, data }
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Label of node `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> u32 {
        self.data[v as usize]
    }

    /// All labels.
    #[inline]
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// Number of labelled nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no labels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl crate::wire::Wire for Labels {
    fn encode(&self, out: &mut Vec<u8>) {
        self.num_classes.encode(out);
        self.data.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, crate::wire::WireError> {
        use crate::wire::WireError;
        let num_classes = usize::decode(buf)?;
        let data = Vec::<u32>::decode(buf)?;
        if data.iter().any(|&c| c as usize >= num_classes) {
            return Err(WireError::Invalid("labels: class id out of range"));
        }
        Ok(Labels { num_classes, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let mut f = Features::zeros(3, 4);
        f.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.row(0), &[0.0; 4]);
        assert_eq!(f.row(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.num_nodes(), 3);
        assert_eq!(f.row_bytes(), 16);
        assert_eq!(f.total_bytes(), 48);
    }

    #[test]
    fn gather_selects_rows() {
        let f = Features::from_raw(2, vec![0., 0., 1., 1., 2., 2.]);
        let g = f.gather(&[2, 0, 2]);
        assert_eq!(g.data(), &[2., 2., 0., 0., 2., 2.]);
    }

    #[test]
    fn community_features_cluster() {
        let communities: Vec<u32> = (0..100).map(|i| i % 4).collect();
        let f = Features::community_features(&communities, 4, 16, 0.05, 42);
        // Same community -> close; different community -> far (on average).
        let d = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
        };
        let same = d(f.row(0), f.row(4));
        let diff = d(f.row(0), f.row(1));
        assert!(same < diff, "same {same} diff {diff}");
    }

    #[test]
    fn labels_validate_range() {
        let l = Labels::from_raw(3, vec![0, 1, 2, 1]);
        assert_eq!(l.get(2), 2);
        assert_eq!(l.num_classes(), 3);
        assert_eq!(l.len(), 4);
    }

    #[test]
    #[should_panic]
    fn labels_reject_out_of_range() {
        Labels::from_raw(2, vec![0, 2]);
    }

    #[test]
    fn wire_round_trips_features_and_labels() {
        use crate::wire::{Wire, WireError};
        let f = Features::from_raw(2, vec![0., 0., 1., 1., 2., 2.]);
        let back = Features::decode(&mut f.to_bytes().as_slice()).unwrap();
        assert_eq!(back.dim(), 2);
        assert_eq!(back.data(), f.data());

        let l = Labels::from_raw(3, vec![0, 1, 2, 1]);
        let back = Labels::decode(&mut l.to_bytes().as_slice()).unwrap();
        assert_eq!(back.num_classes(), 3);
        assert_eq!(back.data(), l.data());

        // Corrupt labels (class id >= num_classes) fail decode.
        let mut bytes = Vec::new();
        2usize.encode(&mut bytes);
        vec![0u32, 5].encode(&mut bytes);
        assert!(matches!(
            Labels::decode(&mut bytes.as_slice()),
            Err(WireError::Invalid(_))
        ));
    }
}
