//! Programs: collections of functions.

use crate::Function;
use serde::{Deserialize, Serialize};

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

/// A whole IR program: an indexed function table.
///
/// # Example
///
/// ```
/// use approx_ir::{FunctionBuilder, Program};
///
/// let mut b = FunctionBuilder::new("id", 1);
/// let p = b.param(0);
/// b.ret(&[p]);
/// let mut program = Program::new();
/// let id = program.add_function(b.build()?);
/// assert_eq!(program.function(id).name(), "id");
/// # Ok::<(), approx_ir::IrError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a function, returning its id. Ids are stable and dense; a
    /// `Call` instruction's `func` field is the id's index.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.functions.push(f);
        FuncId(self.functions.len() as u32 - 1)
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this program.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Fallible lookup by raw index.
    pub fn function_by_index(&self, index: u32) -> Option<&Function> {
        self.functions.get(index as usize)
    }

    /// All functions in id order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}
