//! Common field/dataset containers shared by all generators.

/// A named scalar field over a row-major grid (1-D for particle data).
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name, e.g. `"baryon_density"`.
    pub name: String,
    /// Row-major samples.
    pub data: Vec<f32>,
    /// Grid extents, slowest-varying first (len 1 for particle arrays).
    pub dims: Vec<usize>,
}

impl Field {
    /// Create a field, checking that extents match the data length.
    pub fn new(name: impl Into<String>, data: Vec<f32>, dims: Vec<usize>) -> Self {
        let n: usize = dims.iter().product();
        assert_eq!(n, data.len(), "dims product must equal data length");
        Field {
            name: name.into(),
            data,
            dims,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw size in bytes (f32 storage).
    pub fn raw_bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// A collection of fields from one simulation snapshot.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset label, e.g. `"nyx-128"`.
    pub name: String,
    /// Snapshot fields, in the application's dump order.
    pub fields: Vec<Field>,
}

impl Dataset {
    /// Total raw bytes across fields.
    pub fn raw_bytes(&self) -> usize {
        self.fields.iter().map(Field::raw_bytes).sum()
    }

    /// Find a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_checks_dims() {
        let f = Field::new("t", vec![0.0; 24], vec![2, 3, 4]);
        assert_eq!(f.len(), 24);
        assert_eq!(f.raw_bytes(), 96);
    }

    #[test]
    #[should_panic]
    fn field_rejects_bad_dims() {
        Field::new("t", vec![0.0; 10], vec![3, 4]);
    }

    #[test]
    fn dataset_lookup() {
        let ds = Dataset {
            name: "x".into(),
            fields: vec![Field::new("a", vec![0.0; 4], vec![4])],
        };
        assert!(ds.field("a").is_some());
        assert!(ds.field("b").is_none());
        assert_eq!(ds.raw_bytes(), 16);
    }
}
