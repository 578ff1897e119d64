//! The one argument parser behind every `localias` subcommand.
//!
//! A subcommand's usage line is its grammar. In the words after the
//! subcommand's name:
//!
//! - a word starting with `-` (brackets aside) is a flag, and `|` inside
//!   it separates spellings of one flag (`--jobs|-j`);
//! - a flag takes a value when the next word continues its brackets
//!   (`[--jobs N]`, `[--cache DIR | --no-cache]`);
//! - every other word is a positional slot, required when written
//!   `<like.this>` and optional otherwise (`[SEED]`).
//!
//! Every subcommand gets the same rules: each flag at most once, a value
//! never looks like a flag, and a word is a flag when it starts with `-`
//! and is not a number (`run FILE -3` passes `-3`). Each rejection has
//! one wording, followed by the subcommand's usage line.

use std::fmt::Display;
use std::str::FromStr;

/// A subcommand's arguments, read against its usage line.
pub struct Args<'a> {
    /// `usage: localias NAME GRAMMAR`, appended to every rejection.
    usage: String,
    /// The canonical (first) spelling of every flag the grammar declares.
    declared: Vec<&'a str>,
    /// The positional slots the grammar declares, in order.
    slots: Vec<&'a str>,
    /// Each flag given, by canonical spelling, with its value if it takes one.
    given: Vec<(&'a str, Option<&'a str>)>,
    /// The positionals given, in order.
    positionals: Vec<&'a str>,
}

/// Whether `arg` is a flag rather than a value: it starts with `-` and
/// is not a number.
fn is_flag(arg: &str) -> bool {
    arg.starts_with('-') && arg.parse::<f64>().is_err()
}

impl<'a> Args<'a> {
    /// Reads `args` against `grammar`, the usage line of subcommand `name`
    /// after the name.
    pub fn parse(name: &str, grammar: &'a str, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut flags: Vec<(&str, bool)> = Vec::new();
        let mut slots = Vec::new();
        let mut words = grammar.split_whitespace().peekable();
        while let Some(word) = words.next() {
            let bare = word.trim_matches(['[', ']']);
            if bare == "|" {
                continue;
            }
            if bare.starts_with('-') {
                let valued = !word.ends_with(']')
                    && words
                        .next_if(|w| !w.starts_with(['-', '[']) && *w != "|")
                        .is_some();
                flags.push((bare, valued));
            } else {
                slots.push(bare);
            }
        }
        let mut out = Args {
            usage: format!("usage: localias {name} {grammar}"),
            declared: flags.iter().map(|&(f, _)| canonical(f)).collect(),
            slots,
            given: Vec::new(),
            positionals: Vec::new(),
        };

        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if !is_flag(arg) {
                if out.positionals.len() == out.slots.len() {
                    return Err(out.reject(format!("unexpected argument `{arg}`")));
                }
                out.positionals.push(arg);
                continue;
            }
            let Some(&(spellings, valued)) =
                flags.iter().find(|(f, _)| f.split('|').any(|s| s == arg))
            else {
                return Err(out.reject(format!("unknown flag `{arg}`")));
            };
            let flag = canonical(spellings);
            if out.given.iter().any(|&(f, _)| f == flag) {
                return Err(out.reject(format!("flag `{flag}` given twice")));
            }
            let value = if valued {
                match args.next() {
                    None => return Err(out.reject(format!("flag `{flag}` needs a value"))),
                    Some(v) if is_flag(v) => {
                        let msg = format!("flag `{flag}` needs a value, not the flag `{v}`");
                        return Err(out.reject(msg));
                    }
                    v => v,
                }
            } else {
                None
            };
            out.given.push((flag, value));
        }
        // Required slots precede optional ones, so the first slot left
        // unfilled tells whether a required positional is missing.
        if let Some(slot) = out.slots.get(out.positionals.len()) {
            if slot.starts_with('<') {
                return Err(out.reject(format!("missing {slot}")));
            }
        }
        Ok(out)
    }

    /// `msg` followed by the usage line: the error of a rejected argument.
    pub fn reject(&self, msg: impl Display) -> String {
        format!("{msg}\n{}", self.usage)
    }

    /// The entry of flag `flag` (its canonical spelling), if given.
    fn entry(&self, flag: &str) -> Option<&(&'a str, Option<&'a str>)> {
        assert!(
            self.declared.contains(&flag),
            "`{flag}` is not in the usage line `{}`",
            self.usage
        );
        self.given.iter().find(|&&(f, _)| f == flag)
    }

    /// Whether switch `flag` was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.entry(flag).is_some()
    }

    /// The value of flag `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.entry(flag).and_then(|&(_, v)| v)
    }

    /// The value of flag `flag` as a number, if given.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| self.parse_number(flag, v))
            .transpose()
    }

    /// The `i`th positional, if given.
    pub fn positional(&self, i: usize) -> Option<&'a str> {
        self.positionals.get(i).copied()
    }

    /// The `i`th positional of a required slot, which [`Args::parse`]
    /// guarantees is there.
    pub fn required(&self, i: usize) -> &'a str {
        self.positionals[i]
    }

    /// The `i`th positional as a number, if given.
    pub fn positional_number<T: FromStr>(&self, i: usize) -> Result<Option<T>, String> {
        self.positional(i)
            .map(|v| self.parse_number(self.slots[i], v))
            .transpose()
    }

    /// `text`, the value given for `what`, as a number.
    pub fn parse_number<T: FromStr>(&self, what: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| self.reject(format!("bad number `{text}` for `{what}`")))
    }
}

/// The canonical spelling of a flag: the first of its `|`-separated ones.
fn canonical(spellings: &str) -> &str {
    spellings.split('|').next().unwrap_or(spellings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRAMMAR: &str =
        "<file.mc> [SEED] [--jobs|-j N] [--cache DIR | --no-cache] [--profile] [--sizes N,N,...]";

    fn parse(args: &[&str]) -> Result<Args<'static>, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse("demo", GRAMMAR, Box::leak(args.into_boxed_slice()))
    }

    fn rejection(args: &[&str]) -> String {
        let err = parse(args).err().expect("rejected");
        let (msg, usage) = err.split_once('\n').expect("usage follows");
        assert_eq!(usage, format!("usage: localias demo {GRAMMAR}"));
        msg.to_string()
    }

    #[test]
    fn reads_flags_values_and_positionals() {
        let a = parse(&["f.mc", "-j", "4", "--cache", "d", "7", "--profile"]).unwrap();
        assert_eq!(a.required(0), "f.mc");
        assert_eq!(a.positional_number::<u64>(1), Ok(Some(7)));
        assert_eq!(a.number::<usize>("--jobs"), Ok(Some(4)));
        assert_eq!(a.value("--cache"), Some("d"));
        assert!(a.flag("--profile") && !a.flag("--no-cache"));
        assert_eq!(a.value("--sizes"), None);

        let a = parse(&["f.mc", "--sizes", "1,2", "--no-cache", "--jobs", "0"]).unwrap();
        assert_eq!(a.value("--sizes"), Some("1,2"));
        assert!(a.flag("--no-cache"));
        assert_eq!(a.number::<usize>("--jobs"), Ok(Some(0)));
        assert_eq!(a.positional(1), None);
    }

    /// A word starting with `-` is a value or positional when it is a
    /// number.
    #[test]
    fn negative_numbers_are_not_flags() {
        let a = parse(&["-3", "--cache", "-1.5"]).unwrap();
        assert_eq!(a.required(0), "-3");
        assert_eq!(a.value("--cache"), Some("-1.5"));
        assert_eq!(a.positional_number::<u64>(1), Ok(None));
    }

    #[test]
    fn each_rejection_has_one_wording() {
        for (args, want) in [
            (&["f", "--bogus"][..], "unknown flag `--bogus`"),
            (&["f", "-"][..], "unknown flag `-`"),
            (
                &["f", "--jobs", "1", "-j", "2"][..],
                "flag `--jobs` given twice",
            ),
            (
                &["f", "--profile", "--profile"][..],
                "flag `--profile` given twice",
            ),
            (&["f", "--cache"][..], "flag `--cache` needs a value"),
            (
                &["f", "--cache", "--no-cache"][..],
                "flag `--cache` needs a value, not the flag `--no-cache`",
            ),
            (&["f", "1", "2"][..], "unexpected argument `2`"),
            (&[][..], "missing <file.mc>"),
            (&["--profile"][..], "missing <file.mc>"),
        ] {
            assert_eq!(rejection(args), want, "{args:?}");
        }
        let a = parse(&["f", "x", "--jobs", "many"]).unwrap();
        let msg = |e: String| e.lines().next().unwrap().to_string();
        let jobs = a.number::<usize>("--jobs").unwrap_err();
        assert_eq!(msg(jobs), "bad number `many` for `--jobs`");
        let seed = a.positional_number::<u64>(1).unwrap_err();
        assert_eq!(msg(seed), "bad number `x` for `SEED`");
    }

    #[test]
    #[should_panic(expected = "`--job` is not in the usage line")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse(&["f"]).unwrap().flag("--job");
    }
}
