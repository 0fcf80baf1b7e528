//! The float format shared by the trace sink and the metrics snapshot.
//! It is f64's `{:?}`, while [`crate::value::Value`] writes `{}`; the
//! two differ on some values (`1e-7` against `0.0000001`), so they stay
//! separate to keep snapshot bytes unchanged. Strings go through
//! [`crate::value`]'s escaper.

/// Append an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent). Uses the shortest round-trip representation,
/// so output is deterministic across platforms.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_or_null() {
        let mut out = String::new();
        push_f64(&mut out, 0.1);
        assert_eq!(out, "0.1");
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_f64(&mut out, 3.0);
        assert_eq!(out, "3.0");
    }
}
