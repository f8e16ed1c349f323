//! One declaration per stats block.
//!
//! Every counter block served under `GET /xdb/stats` (and every one read
//! by the benchmarks) is declared once through
//! [`stats!`](crate::stats!). Each field names its doc comment, its kind
//! — `u64`, or `Duration` (in scope at the call site; held as
//! nanoseconds, rendered in whole microseconds) — a merge rule, and the
//! attribute it is served under. From that the macro generates the plain
//! snapshot struct with `since`, `merge` and
//! `to_node`, and, for blocks recorded concurrently, the `AtomicU64` twin
//! with `snapshot()`. The `record*` methods carry logic and stay
//! hand-written.
//!
//! | rule    | `merge` | `since`                | for                                   |
//! |---------|---------|------------------------|---------------------------------------|
//! | `sum`   | add     | subtract               | counters                              |
//! | `max`   | max     | max                    | high-water marks                      |
//! | `gauge` | max     | keep the later reading | point-in-time readings (MVCC version) |
//! | `level` | add     | keep the later reading | extensive state (documents, segments) |
//!
//! `merge` folds another store's reading into this one (the sharded
//! aggregation): summing two stores' gauges would report a value no store
//! ever held, while their levels describe disjoint state and do add up.
//!
//! A block reads, field by field, `name: kind = rule("served-name"),`
//! with the field's doc comment above it; `QueryStats` in the `netmark`
//! crate is a typical one, declared next to its `QueryMetrics` twin.

/// Declares one stats block; see the [module docs](self) for the rules.
#[macro_export]
macro_rules! stats {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = ::std::cmp::max($a, $b) };
    (@merge gauge, $a:expr, $b:expr) => { $a = ::std::cmp::max($a, $b) };
    (@merge level, $a:expr, $b:expr) => { $a += $b };
    (@since sum, $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (@since max, $later:expr, $earlier:expr) => { ::std::cmp::max($later, $earlier) };
    (@since gauge, $later:expr, $earlier:expr) => { $later };
    (@since level, $later:expr, $earlier:expr) => { $later };
    (@raw u64, $raw:expr) => { $raw };
    (@raw Duration, $raw:expr) => { ::std::time::Duration::from_nanos($raw) };
    (@attr u64, $v:expr) => { $v.to_string() };
    (@attr Duration, $v:expr) => { $v.as_micros().to_string() };
    (@twin [] $($rest:tt)*) => {};
    (
        @twin [$(#[$meta:meta])* $vis:vis struct $Atomic:ident => atomic;]
        $Plain:ident { $($field:ident: $kind:ident),* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $Atomic {
            $( pub(crate) $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $Atomic {
            /// Point-in-time copy of the counters. Each field is read
            /// atomically (Relaxed); the set is not one snapshot, which is
            /// fine for monitoring.
            pub fn snapshot(&self) -> $Plain {
                $Plain {
                    $( $field: $crate::stats!(@raw $kind,
                        self.$field.load(::std::sync::atomic::Ordering::Relaxed)), )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Plain:ident => $elem:literal {
            $(
                $(#[$fmeta:meta])*
                $field:ident : $kind:ident = $rule:ident($attr:literal),
            )*
        }
        $($twin:tt)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $Plain {
            $(
                $(#[$fmeta])*
                pub $field: $kind,
            )*
        }

        impl $Plain {
            /// What accumulated since `earlier`: counters subtract,
            /// high-water marks keep the max, gauges and levels keep this
            /// (the later) reading.
            pub fn since(&self, earlier: &$Plain) -> $Plain {
                $Plain {
                    $( $field: $crate::stats!(@since $rule, self.$field, earlier.$field), )*
                }
            }

            /// Folds another store's reading into this one: counters and
            /// levels add, high-water marks and gauges take the max.
            pub fn merge(&mut self, other: &$Plain) {
                $( $crate::stats!(@merge $rule, self.$field, other.$field); )*
            }

            #[doc = concat!("Renders the `<", $elem, "/>` stats element: one attribute per field, durations in whole microseconds.")]
            pub fn to_node(self) -> $crate::Node {
                $crate::Node::element($elem)
                    $( .with_attr($attr, &$crate::stats!(@attr $kind, self.$field)) )*
            }
        }

        $crate::stats!(@twin [$($twin)*] $Plain { $($field: $kind),* });
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::Duration;

    stats! {
        /// One field per rule.
        struct Rules => "rules" {
            /// A counter.
            counter: u64 = sum("counter"),
            /// A high-water mark.
            peak: u64 = max("peak"),
            /// A point-in-time reading.
            reading: u64 = gauge("reading"),
            /// Extensive state.
            extent: u64 = level("extent"),
            /// A cumulative duration.
            time: Duration = sum("time-us"),
        }
        /// The recorded twin.
        struct RulesMetrics => atomic;
    }

    /// A block from its five fields, the duration in microseconds.
    fn rules([counter, peak, reading, extent, micros]: [u64; 5]) -> Rules {
        let time = Duration::from_micros(micros);
        Rules {
            counter,
            peak,
            reading,
            extent,
            time,
        }
    }

    #[test]
    fn merge_follows_each_rule() {
        let (mut a, mut b) = (rules([7; 5]), rules([5; 5]));
        a.merge(&rules([5; 5]));
        b.merge(&rules([7; 5]));
        assert_eq!(a, rules([12, 7, 7, 12, 12]));
        assert_eq!(a, b, "merge order must not matter");
    }

    #[test]
    fn since_follows_each_rule() {
        let later = rules([9, 3, 9, 9, 9]);
        assert_eq!(later.since(&rules([4; 5])), rules([5, 4, 9, 9, 5]));
        let reset = rules([2; 5]).since(&rules([3; 5]));
        assert_eq!(reset.counter, 0, "a reset never underflows");
    }

    #[test]
    fn twin_snapshots_and_renders_durations_in_whole_micros() {
        let m = RulesMetrics::default();
        m.counter.fetch_add(3, Relaxed);
        m.time.fetch_add(2_999_999, Relaxed);
        let node = m.snapshot().to_node();
        assert_eq!(node.name, "rules");
        let attrs: Vec<String> = node.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let want = "counter=3 peak=0 reading=0 extent=0 time-us=2999";
        assert_eq!(attrs.join(" "), want);
    }
}
