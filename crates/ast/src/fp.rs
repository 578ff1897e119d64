//! The shared 128-bit FNV-1a fingerprint core.
//!
//! Every content-addressed key of the module-level result cache in
//! `localias-bench` hashes with this one core: the raw key hashes source
//! text ([`fingerprint`]), the canonical key hashes a parsed module's
//! structure ([`structural`]). Keys are *domain-separated*: each keying
//! domain prefixes its own domain string (which embeds
//! [`ANALYSIS_VERSION`]), so a key of one kind can never collide with a
//! key of another, and bumping the version invalidates every cached
//! result at once.
//!
//! The structural key hashes a prefix-free encoding of the AST: a tag
//! per node and operator, every name, literal and type, and a length
//! before every list and string — never a span, a node id or the
//! module's name. Comments, whitespace and parentheses leave no trace in
//! the AST, so they leave none in the key; any change to what the
//! analyses see changes the encoding.
//!
//! The core lives in `localias-ast` (the root of the crate graph);
//! bench re-exports these items.

use crate::ast::*;

/// Bumped whenever any analysis stage changes observable results, so a
/// stale on-disk module store can never serve wrong answers. Mixed into
/// every fingerprint domain.
///
/// v2: the checker moved to the frozen-analysis, call-graph-scheduled
/// pipeline and the store grew the generic `"v"` payload.
///
/// v3: havoc (calls into recursive cycles) became total — untouched
/// locations drop to Top and the clobber propagates through summaries —
/// fixing a soundness hole where a cycle's lock effects were invisible
/// to callers (found by `localias fuzz`; see DESIGN.md §12).
pub const ANALYSIS_VERSION: u32 = 3;

/// FNV-1a 128-bit offset basis.
pub const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;

/// FNV-1a 128-bit prime.
pub const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Folds `bytes` into a running FNV-1a hash state.
pub fn fnv1a(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One-shot domain-separated fingerprint: hashes the domain prefix, then
/// the payload. Distinct domains partition the key space; two calls
/// collide only if both domain and payload agree.
pub fn fingerprint(domain: &str, payload: &str) -> u128 {
    fnv1a(fnv1a(FNV_OFFSET, domain.as_bytes()), payload.as_bytes())
}

/// Fingerprint of `m`'s structure under `domain`: the FNV-1a hash of the
/// domain string followed by the module's prefix-free structural
/// encoding (see the module docs).
pub fn structural(domain: &str, m: &Module) -> u128 {
    let mut e = Encoder(fnv1a(FNV_OFFSET, domain.as_bytes()));
    e.len(m.items.len());
    for item in &m.items {
        e.item(item);
    }
    e.0
}

/// Feeds the structural encoding of AST nodes into a running FNV-1a
/// state. Tags are single bytes; lengths and integers are LEB128
/// varints (integers zigzagged), so every field has a self-delimiting
/// encoding and the whole encoding is prefix-free.
struct Encoder(u128);

impl Encoder {
    fn tag(&mut self, t: u8) {
        self.0 = fnv1a(self.0, &[t]);
    }

    fn varint(&mut self, mut n: u64) {
        let mut buf = [0u8; 10];
        let mut i = 0;
        while n >= 0x80 {
            buf[i] = n as u8 | 0x80;
            n >>= 7;
            i += 1;
        }
        buf[i] = n as u8;
        self.0 = fnv1a(self.0, &buf[..=i]);
    }

    fn len(&mut self, n: usize) {
        self.varint(n as u64);
    }

    fn int(&mut self, n: i64) {
        self.varint(((n << 1) ^ (n >> 63)) as u64);
    }

    fn name(&mut self, s: &str) {
        self.len(s.len());
        self.0 = fnv1a(self.0, s.as_bytes());
    }

    fn item(&mut self, item: &Item) {
        match &item.kind {
            ItemKind::Struct(s) => {
                self.tag(0);
                self.name(&s.name.name);
                self.len(s.fields.len());
                for (f, ty) in &s.fields {
                    self.name(&f.name);
                    self.ty(ty);
                }
            }
            ItemKind::Global(g) => {
                self.tag(1);
                self.name(&g.name.name);
                self.ty(&g.ty);
            }
            ItemKind::Fun(f) => {
                self.tag(2);
                self.name(&f.name.name);
                self.params(&f.params);
                self.ty(&f.ret);
                self.block(&f.body);
            }
            ItemKind::Extern(x) => {
                self.tag(3);
                self.name(&x.name.name);
                self.params(&x.params);
                self.ty(&x.ret);
            }
        }
    }

    fn params(&mut self, params: &[Param]) {
        self.len(params.len());
        for p in params {
            self.name(&p.name.name);
            self.ty(&p.ty);
            self.tag(p.restrict as u8);
        }
    }

    fn ty(&mut self, ty: &TypeExpr) {
        match ty {
            TypeExpr::Int => self.tag(0),
            TypeExpr::Lock => self.tag(1),
            TypeExpr::Void => self.tag(2),
            TypeExpr::Ptr(t) => {
                self.tag(3);
                self.ty(t);
            }
            TypeExpr::Array(t, n) => {
                self.tag(4);
                self.ty(t);
                self.len(*n);
            }
            TypeExpr::Struct(s) => {
                self.tag(5);
                self.name(s);
            }
        }
    }

    fn block(&mut self, b: &Block) {
        self.len(b.stmts.len());
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn opt_expr(&mut self, e: Option<&Expr>) {
        match e {
            None => self.tag(0),
            Some(e) => {
                self.tag(1);
                self.expr(e);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.tag(0);
                self.expr(e);
            }
            StmtKind::Decl {
                binding,
                ty,
                name,
                init,
            } => {
                self.tag(1);
                self.tag(match binding {
                    BindingKind::Let => 0,
                    BindingKind::Restrict => 1,
                });
                self.ty(ty);
                self.name(&name.name);
                self.opt_expr(init.as_ref());
            }
            StmtKind::Restrict { name, init, body } => {
                self.tag(2);
                self.name(&name.name);
                self.expr(init);
                self.block(body);
            }
            StmtKind::Confine { expr, body } => {
                self.tag(3);
                self.expr(expr);
                self.block(body);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.tag(4);
                self.expr(cond);
                self.block(then_blk);
                match else_blk {
                    None => self.tag(0),
                    Some(b) => {
                        self.tag(1);
                        self.block(b);
                    }
                }
            }
            StmtKind::While { cond, body, step } => {
                self.tag(5);
                self.expr(cond);
                self.block(body);
                self.opt_expr(step.as_ref());
            }
            StmtKind::Return(e) => {
                self.tag(6);
                self.opt_expr(e.as_ref());
            }
            StmtKind::Break => self.tag(7),
            StmtKind::Continue => self.tag(8),
            StmtKind::Block(b) => {
                self.tag(9);
                self.block(b);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Int(n) => {
                self.tag(0);
                self.int(*n);
            }
            ExprKind::Var(x) => {
                self.tag(1);
                self.name(&x.name);
            }
            ExprKind::Unary(op, a) => {
                self.tag(2);
                self.tag(*op as u8);
                self.expr(a);
            }
            ExprKind::Binary(op, a, b) => {
                self.tag(3);
                self.tag(*op as u8);
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Assign(a, b) => {
                self.tag(4);
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Call(f, args) => {
                self.tag(5);
                self.name(&f.name);
                self.len(args.len());
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Index(a, b) => {
                self.tag(6);
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Field(a, f) => {
                self.tag(7);
                self.expr(a);
                self.name(&f.name);
            }
            ExprKind::Arrow(a, f) => {
                self.tag(8);
                self.expr(a);
                self.name(&f.name);
            }
            ExprKind::New(a) => {
                self.tag(9);
                self.expr(a);
            }
            ExprKind::Cast(ty, a) => {
                self.tag(10);
                self.ty(ty);
                self.expr(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_domains_and_payloads() {
        assert_eq!(fingerprint("d;", "x"), fingerprint("d;", "x"));
        assert_ne!(fingerprint("d;", "x"), fingerprint("e;", "x"));
        assert_ne!(fingerprint("d;", "x"), fingerprint("d;", "y"));
        // FNV-1a streams bytes with no implicit boundary, so the split
        // point between domain and payload is invisible to the hash:
        assert_eq!(fingerprint("ab", "c"), fingerprint("a", "bc"));
        // Separation therefore rests on the call-site convention that
        // domains are fixed `;`-terminated literals of which none is a
        // prefix of another — under it, differing domains diverge before
        // the payload can compensate at a matching offset.
        assert_ne!(fingerprint("raw;v2;", "x"), fingerprint("item;v2;", "x"));
    }

    #[test]
    fn core_matches_the_historical_cache_constants() {
        // These literals are frozen: the on-disk store from earlier
        // releases was keyed with them, and changing either would
        // silently invalidate (or worse, mis-hit) existing caches.
        assert_eq!(FNV_OFFSET, 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(FNV_PRIME, 0x0000000001000000000000000000013b);
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }
}
