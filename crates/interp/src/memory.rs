//! The interpreter's memory model.
//!
//! Memory is a set of *objects*, each a run of scalar cells (an `int`, a
//! pointer, or a lock occupies one cell; arrays and structs flatten).
//! An [`Addr`] is an `(object, offset)` pair — there is no address
//! arithmetic across objects, and indexing is bounds-checked.
//!
//! Cells can be **poisoned**: this is the paper's §3.2 `err` binding.
//! Evaluating `restrict x = e1 in e2` copies `e1`'s referent into a fresh
//! cell and poisons the original for the extent of `e2`; any program that
//! reads or writes a poisoned cell has violated its `restrict` and the
//! interpreter stops with [`crate::RuntimeError::RestrictViolation`].

use localias_ast::{Module, Symbol, TypeExpr, TypeKind, Types};
use std::fmt;

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A pointer.
    Addr(Addr),
    /// A lock; `true` = held.
    Lock(bool),
    /// The unit value (void returns).
    Void,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Addr(a) => write!(f, "{a}"),
            Value::Lock(held) => write!(f, "lock({})", if *held { "held" } else { "free" }),
            Value::Void => write!(f, "()"),
        }
    }
}

/// The address of one cell: `(object id, offset)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Object id in the [`Memory`].
    pub obj: usize,
    /// Cell offset within the object.
    pub off: usize,
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}+{}", self.obj, self.off)
    }
}

/// One memory cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Current value.
    pub value: Value,
    /// `true` while a `restrict`/`confine` has bound this cell's only
    /// legal access path elsewhere (the paper's `err`).
    pub poisoned: bool,
}

/// One allocated object: a run of cells.
#[derive(Debug, Clone)]
pub struct Obj {
    /// The cells.
    pub cells: Vec<Cell>,
}

/// The store `S` of the big-step semantics.
#[derive(Debug)]
pub struct Memory {
    objects: Vec<Obj>,
    /// The module's types, extended with the pointer types evaluation
    /// builds (`&x`, `new e`).
    types: Types,
    /// Struct layouts, indexed by struct name, computed once per module.
    layouts: Vec<Option<StructLayout>>,
}

/// The flattened layout of a struct type.
#[derive(Debug, Clone)]
pub struct StructLayout {
    /// Each field's name, cell offset and type, in declaration order
    /// (which is offset order).
    pub fields: Vec<(Symbol, usize, TypeExpr)>,
    /// Total size in cells.
    pub size: usize,
}

impl StructLayout {
    /// The cell offset and type of field `name` (the last one declared,
    /// should a struct repeat a field name).
    pub fn field(&self, name: Symbol) -> Option<(usize, TypeExpr)> {
        self.fields
            .iter()
            .rfind(|f| f.0 == name)
            .map(|&(_, off, ty)| (off, ty))
    }
}

/// The default (zero) value of a scalar type.
pub fn default_value(ty: TypeKind) -> Value {
    match ty {
        TypeKind::Lock => Value::Lock(false),
        TypeKind::Ptr(_) => Value::Int(0), // "null"; dereferencing traps
        _ => Value::Int(0),
    }
}

impl Memory {
    /// Creates memory with the module's struct layouts computed.
    pub fn new(m: &Module) -> Self {
        let mut mem = Memory {
            objects: Vec::new(),
            types: m.types().clone(),
            layouts: vec![None; m.names().len()],
        };
        // Structs may reference earlier structs; iterate until stable
        // (no recursion is possible since struct fields are by value).
        for _ in 0..m.structs().count() + 1 {
            for s in m.structs() {
                if mem.layouts[s.name.name.index()].is_some() {
                    continue;
                }
                if s.fields.iter().all(|&(_, t)| match m.ty(t) {
                    TypeKind::Struct(inner) => mem.layouts[inner.index()].is_some(),
                    _ => true,
                }) {
                    let mut fields = Vec::with_capacity(s.fields.len());
                    let mut off = 0;
                    for &(fname, fty) in &s.fields {
                        fields.push((fname.name, off, fty));
                        off += mem.size_of(fty);
                    }
                    mem.layouts[s.name.name.index()] = Some(StructLayout { fields, size: off });
                }
            }
        }
        mem
    }

    /// The form of type `t`.
    pub fn ty(&self, t: TypeExpr) -> TypeKind {
        self.types.kind(t)
    }

    /// The module's type table, extended with the types evaluation built.
    pub fn types(&self) -> &Types {
        &self.types
    }

    /// `T*`, interned into this memory's type table.
    pub fn ptr(&mut self, t: TypeExpr) -> TypeExpr {
        self.types.ptr(t)
    }

    /// The layout of struct `name`, if the module defines it.
    pub fn layout(&self, name: Symbol) -> Option<&StructLayout> {
        self.layouts.get(name.index())?.as_ref()
    }

    /// Size of a type in cells.
    pub fn size_of(&self, ty: TypeExpr) -> usize {
        match self.ty(ty) {
            TypeKind::Int | TypeKind::Lock | TypeKind::Void | TypeKind::Ptr(_) => 1,
            TypeKind::Array(elem, n) => n * self.size_of(elem),
            TypeKind::Struct(s) => self.layout(s).map_or(1, |l| l.size),
        }
    }

    /// Allocates an object for a value of type `ty`, zero-initialized,
    /// and returns the address of its first cell.
    pub fn alloc(&mut self, ty: TypeExpr) -> Addr {
        let size = self.size_of(ty);
        let cells = self.init_cells(ty, size);
        let obj = self.objects.len();
        self.objects.push(Obj { cells });
        Addr { obj, off: 0 }
    }

    /// Allocates a single cell holding `v`.
    pub fn alloc_cell(&mut self, v: Value) -> Addr {
        let obj = self.objects.len();
        self.objects.push(Obj {
            cells: vec![Cell {
                value: v,
                poisoned: false,
            }],
        });
        Addr { obj, off: 0 }
    }

    fn init_cells(&self, ty: TypeExpr, size: usize) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(size);
        self.push_cells(ty, &mut cells);
        debug_assert_eq!(cells.len(), size);
        cells
    }

    fn push_cells(&self, ty: TypeExpr, out: &mut Vec<Cell>) {
        match self.ty(ty) {
            TypeKind::Array(elem, n) => {
                for _ in 0..n {
                    self.push_cells(elem, out);
                }
            }
            TypeKind::Struct(s) => {
                if let Some(layout) = self.layout(s) {
                    // Fields in offset order.
                    for &(_, _, t) in &layout.fields {
                        self.push_cells(t, out);
                    }
                } else {
                    out.push(Cell {
                        value: Value::Int(0),
                        poisoned: false,
                    });
                }
            }
            scalar => out.push(Cell {
                value: default_value(scalar),
                poisoned: false,
            }),
        }
    }

    /// Whether `a` is a valid cell address.
    pub fn in_bounds(&self, a: Addr) -> bool {
        self.objects
            .get(a.obj)
            .is_some_and(|o| a.off < o.cells.len())
    }

    /// The cell at `a`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds; callers bounds-check first.
    pub fn cell(&self, a: Addr) -> &Cell {
        &self.objects[a.obj].cells[a.off]
    }

    /// Mutable access to the cell at `a`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds; callers bounds-check first.
    pub fn cell_mut(&mut self, a: Addr) -> &mut Cell {
        &mut self.objects[a.obj].cells[a.off]
    }

    /// Number of lock cells currently in the held state, across every
    /// object. The differential fuzz oracle reads this after an entry
    /// function returns: a nonzero count on a path the checker verified
    /// means a lock escaped its balanced region (handoff or leak).
    pub fn held_lock_count(&self) -> usize {
        self.objects
            .iter()
            .flat_map(|o| &o.cells)
            .filter(|c| c.value == Value::Lock(true))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;

    #[test]
    fn scalar_sizes() {
        let m = parse_module("m", "int *p; lock l[5];").unwrap();
        let mem = Memory::new(&m);
        assert_eq!(mem.size_of(TypeExpr::INT), 1);
        assert_eq!(mem.size_of(TypeExpr::LOCK), 1);
        let sizes: Vec<usize> = m.globals().map(|g| mem.size_of(g.ty)).collect();
        assert_eq!(sizes, [1, 5]);
    }

    #[test]
    fn struct_layouts_flatten() {
        let m = parse_module(
            "m",
            r#"
            struct inner { int a; int b; };
            struct outer { lock mu; struct inner nested; int tail; };
            "#,
        )
        .unwrap();
        let mem = Memory::new(&m);
        let sym = |s: &str| m.symbol(s).unwrap();
        let outer = mem.layout(sym("outer")).unwrap();
        assert_eq!(outer.size, 4);
        assert_eq!(outer.field(sym("mu")).unwrap().0, 0);
        assert_eq!(outer.field(sym("nested")).unwrap().0, 1);
        assert_eq!(outer.field(sym("tail")).unwrap().0, 3);
    }

    #[test]
    fn alloc_and_bounds() {
        let m = parse_module("m", "lock locks[3];").unwrap();
        let mut mem = Memory::new(&m);
        let a = mem.alloc(m.globals().next().unwrap().ty);
        assert!(mem.in_bounds(Addr { obj: a.obj, off: 2 }));
        assert!(!mem.in_bounds(Addr { obj: a.obj, off: 3 }));
        assert_eq!(mem.cell(a).value, Value::Lock(false));
    }
}
