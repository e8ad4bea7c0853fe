//! Schema description: attribute names and types.

use crate::error::TableError;

/// Logical type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Dictionary-encoded categorical attribute.
    Cat,
    /// 64-bit integer attribute.
    Int,
    /// 64-bit floating point attribute.
    Float,
}

impl DType {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DType::Cat => "cat",
            DType::Int => "int",
            DType::Float => "float",
        }
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name, unique within a schema.
    pub name: String,
    /// Attribute type.
    pub dtype: DType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// Ordered collection of fields; attribute ids are positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Names are assumed unique (checked by the
    /// [`crate::TableBuilder`]).
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Resolve an attribute name to its id.
    pub fn index_of(&self, name: &str) -> Result<usize, TableError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| TableError::UnknownAttribute(name.to_string()))
    }

    /// Iterate over `(id, field)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Field)> {
        self.fields.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_resolves_and_errors() {
        let s = Schema::new(vec![
            Field::new("country", DType::Cat),
            Field::new("salary", DType::Float),
        ]);
        assert_eq!(s.index_of("salary").unwrap(), 1);
        assert!(matches!(
            s.index_of("nope"),
            Err(TableError::UnknownAttribute(_))
        ));
    }
}
