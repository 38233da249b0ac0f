//! Lightweight SI unit helpers.
//!
//! Internally every model computes in plain `f64` SI units (volts, farads,
//! hertz, watts). These newtypes exist at API boundaries where confusing a
//! capacitance for a voltage would be an easy, catastrophic mistake, and for
//! readable engineering-notation display in reports.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $symbol:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[must_use]
        pub struct $name(pub f64);

        impl $name {
            /// The underlying SI value.
            #[inline]
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }
            /// Constructs from a value scaled by 1e-6.
            pub fn micro(v: f64) -> Self {
                Self(v * 1e-6)
            }
            /// Constructs from a value scaled by 1e-3.
            pub fn milli(v: f64) -> Self {
                Self(v * 1e-3)
            }
            /// The larger of two quantities (by SI value).
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
            /// The smaller of two quantities (by SI value).
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (scaled, prefix) = engineering(self.0);
                write!(f, "{scaled:.4} {prefix}{}", $symbol)
            }
        }
    };
}

unit!(
    /// An electric potential in volts.
    Volts,
    "V"
);
unit!(
    /// A capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// A frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// A power in watts.
    Watts,
    "W"
);
unit!(
    /// A current in amperes.
    Amperes,
    "A"
);
unit!(
    /// An energy in joules.
    Joules,
    "J"
);

/// Splits a value into (mantissa, SI prefix) for engineering display.
#[must_use]
pub fn engineering(v: f64) -> (f64, &'static str) {
    if efficsense_dsp::approx::is_zero(v) || !v.is_finite() {
        return (v, "");
    }
    let prefixes: [(f64, &str); 9] = [
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
    ];
    let mag = v.abs();
    for (scale, p) in prefixes {
        if mag >= scale {
            return (v / scale, p);
        }
    }
    (v / 1e-15, "f")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(Volts::milli(25.27).value(), 0.02527);
        assert_eq!(Watts::micro(2.44).value(), 2.44e-6);
    }

    #[test]
    fn display_uses_si_prefix() {
        assert_eq!(Watts::micro(2.44).to_string(), "2.4400 µW");
        assert_eq!(Volts(2.0).to_string(), "2.0000 V");
        assert_eq!(Farads(1e-15).to_string(), "1.0000 fF");
        assert_eq!(Hertz(537.6).to_string(), "537.6000 Hz");
    }

    #[test]
    fn engineering_edge_cases() {
        assert_eq!(engineering(0.0), (0.0, ""));
        let (m, p) = engineering(1.5e9);
        assert_eq!((m, p), (1.5, "G"));
        let (m, p) = engineering(-3e-6);
        assert!((m + 3.0).abs() < 1e-12);
        assert_eq!(p, "µ");
    }

    #[test]
    fn from_f64() {
        let w: Watts = 1e-6.into();
        assert_eq!(w.value(), 1e-6);
    }

    #[test]
    fn ordering_works() {
        assert!(Watts(1.0) > Watts(0.5));
    }

    #[test]
    fn arithmetic_ops() {
        assert_eq!((Watts(1.0) + Watts(0.5)).value(), 1.5);
        assert_eq!((Watts(1.0) - Watts(0.25)).value(), 0.75);
        assert_eq!((Watts(2.0) * 3.0).value(), 6.0);
        assert_eq!((3.0 * Watts(2.0)).value(), 6.0);
        assert_eq!((Watts(6.0) / 3.0).value(), 2.0);
        assert_eq!(Watts(6.0) / Watts(3.0), 2.0);
        let mut w = Watts(1.0);
        w += Watts(1.0);
        assert_eq!(w.value(), 2.0);
        let total: Watts = [Watts(1.0), Watts(2.0)].into_iter().sum();
        assert_eq!(total.value(), 3.0);
        assert_eq!(Farads(1e-12).max(Farads(2e-12)).value(), 2e-12);
        assert_eq!(Farads(1e-12).min(Farads(2e-12)).value(), 1e-12);
    }
}
