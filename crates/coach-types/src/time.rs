//! Simulation clock, durations, weekdays, and time-window partitioning.
//!
//! The paper's telemetry is sampled every 5 minutes (§2 methodology); Coach's
//! long-term predictions are made per *time window* (six 4-hour windows per
//! day by default, §3.3). We model time as an integer count of 5-minute
//! ticks from the start of the trace, which is defined to be **Monday 00:00**.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Ticks (5-minute samples) per hour.
pub const TICKS_PER_HOUR: u64 = 12;
/// Ticks per day.
pub const TICKS_PER_DAY: u64 = 24 * TICKS_PER_HOUR;

/// A point in simulated time, counted in 5-minute ticks since Monday 00:00.
///
/// # Example
///
/// ```
/// use coach_types::{Timestamp, Weekday};
/// let t = Timestamp::from_days(1) + coach_types::SimDuration::from_hours(13);
/// assert_eq!(t.weekday(), Weekday::Tuesday);
/// assert_eq!(t.hour_of_day(), 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace origin: Monday 00:00.
    pub const ZERO: Timestamp = Timestamp(0);

    /// From raw ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        Timestamp(ticks)
    }

    /// From whole hours since origin.
    pub const fn from_hours(hours: u64) -> Self {
        Timestamp(hours * TICKS_PER_HOUR)
    }

    /// From whole days since origin.
    pub const fn from_days(days: u64) -> Self {
        Timestamp(days * TICKS_PER_DAY)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whole days since origin.
    pub const fn day(self) -> u64 {
        self.0 / TICKS_PER_DAY
    }

    /// Hour of day, `0..24`.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % TICKS_PER_DAY) / TICKS_PER_HOUR
    }

    /// Tick within the current day, `0..TICKS_PER_DAY`.
    pub const fn tick_of_day(self) -> u64 {
        self.0 % TICKS_PER_DAY
    }

    /// Day of week (trace starts on Monday).
    pub const fn weekday(self) -> Weekday {
        Weekday::from_index((self.day() % 7) as usize)
    }

    /// True for Saturday/Sunday.
    pub const fn is_weekend(self) -> bool {
        matches!(self.weekday(), Weekday::Saturday | Weekday::Sunday)
    }

    /// Saturating subtraction in ticks.
    pub fn saturating_sub(self, d: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// Duration elapsed since `earlier` (panics in debug if `earlier > self`).
    pub fn since(self, earlier: Timestamp) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "since() requires earlier <= self");
        SimDuration(self.0 - earlier.0)
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let minute = (self.0 % TICKS_PER_HOUR) * 5;
        write!(
            f,
            "{} d{} {:02}:{:02}",
            self.weekday(),
            self.day(),
            self.hour_of_day(),
            minute
        )
    }
}

/// A span of simulated time in 5-minute ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From raw ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// From whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * TICKS_PER_HOUR)
    }

    /// From whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * TICKS_PER_DAY)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// In fractional hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / TICKS_PER_HOUR as f64
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(TICKS_PER_DAY) {
            write!(f, "{}d", self.0 / TICKS_PER_DAY)
        } else if self.0.is_multiple_of(TICKS_PER_HOUR) {
            write!(f, "{}h", self.0 / TICKS_PER_HOUR)
        } else {
            write!(f, "{}m", self.0 * 5)
        }
    }
}

/// Day of the week. The trace origin is Monday (§2: two weeks starting Monday).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// From index 0 (Monday) .. 6 (Sunday); wraps modulo 7.
    pub const fn from_index(i: usize) -> Weekday {
        match i % 7 {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// Index 0 (Monday) .. 6 (Sunday).
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Weekday::Monday => "Mon",
            Weekday::Tuesday => "Tue",
            Weekday::Wednesday => "Wed",
            Weekday::Thursday => "Thu",
            Weekday::Friday => "Fri",
            Weekday::Saturday => "Sat",
            Weekday::Sunday => "Sun",
        };
        f.write_str(s)
    }
}

/// Partition of each day into equal time windows (§3.3).
///
/// Coach's default is **6 windows of 4 hours**; the characterization sweeps
/// 1×24h … 24×1h (Fig 10/11) and the ideal 5-minute multiplexing.
///
/// # Example
///
/// ```
/// use coach_types::{TimeWindows, Timestamp};
/// let tw = TimeWindows::paper_default();
/// assert_eq!(tw.count(), 6);
/// // 13:00 falls in window 3 (12:00-16:00).
/// assert_eq!(tw.window_of(Timestamp::from_hours(13)), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindows {
    windows_per_day: u32,
}

impl TimeWindows {
    /// Construct a partition with `windows_per_day` equal windows.
    ///
    /// # Panics
    ///
    /// Panics if `windows_per_day` is zero or does not divide 24 hours
    /// evenly in ticks (i.e. must divide 288).
    pub fn new(windows_per_day: u32) -> Self {
        assert!(windows_per_day > 0, "need at least one window per day");
        assert!(
            TICKS_PER_DAY.is_multiple_of(windows_per_day as u64),
            "windows per day must divide {} ticks",
            TICKS_PER_DAY
        );
        TimeWindows { windows_per_day }
    }

    /// The paper's production configuration: six 4-hour windows.
    pub fn paper_default() -> Self {
        TimeWindows::new(6)
    }

    /// A single 24-hour window (the "no temporal patterns" baseline).
    pub fn single() -> Self {
        TimeWindows::new(1)
    }

    /// The finest sweep point: every 5-minute tick its own window ("ideal").
    pub fn ideal() -> Self {
        TimeWindows::new(TICKS_PER_DAY as u32)
    }

    /// Number of windows per day.
    pub const fn count(&self) -> usize {
        self.windows_per_day as usize
    }

    /// Window length in ticks.
    pub const fn window_ticks(&self) -> u64 {
        TICKS_PER_DAY / self.windows_per_day as u64
    }

    /// Window length in fractional hours.
    pub fn window_hours(&self) -> f64 {
        24.0 / self.windows_per_day as f64
    }

    /// Which window (0-based, within the day) a timestamp falls into.
    pub const fn window_of(&self, t: Timestamp) -> usize {
        (t.tick_of_day() / self.window_ticks()) as usize
    }

    /// Iterate all window indices.
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.count()
    }

    /// Human-readable label, e.g. `"6x4hr"`.
    pub fn label(&self) -> String {
        let hours = self.window_hours();
        if hours >= 1.0 {
            format!("{}x{}hr", self.windows_per_day, hours)
        } else {
            format!("{}x{}min", self.windows_per_day, (hours * 60.0) as u32)
        }
    }
}

impl Default for TimeWindows {
    fn default() -> Self {
        TimeWindows::paper_default()
    }
}

impl fmt::Display for TimeWindows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_fields() {
        let t = Timestamp::from_days(8) + SimDuration::from_hours(14);
        assert_eq!(t.day(), 8);
        assert_eq!(t.hour_of_day(), 14);
        assert_eq!(t.weekday(), Weekday::Tuesday);
        assert!(!t.is_weekend());
        assert!(Timestamp::from_days(5).is_weekend());
        assert!(Timestamp::from_days(6).is_weekend());
    }

    #[test]
    fn duration_conversions() {
        let d = SimDuration::from_days(2);
        assert_eq!(d.as_hours(), 48.0);
        assert_eq!(d.to_string(), "2d");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h");
        assert_eq!(SimDuration::from_ticks(1).to_string(), "5m");
    }

    #[test]
    fn since_and_saturating() {
        let a = Timestamp::from_hours(10);
        let b = Timestamp::from_hours(4);
        assert_eq!(a.since(b), SimDuration::from_hours(6));
        assert_eq!(
            b.saturating_sub(SimDuration::from_hours(10)),
            Timestamp::ZERO
        );
    }

    #[test]
    fn weekday_roundtrip() {
        for (i, d) in Weekday::ALL.into_iter().enumerate() {
            assert_eq!(Weekday::from_index(i), d);
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn paper_default_windows() {
        let tw = TimeWindows::paper_default();
        assert_eq!(tw.count(), 6);
        assert_eq!(tw.window_hours(), 4.0);
        assert_eq!(tw.label(), "6x4hr");
        assert_eq!(tw.window_of(Timestamp::ZERO), 0);
        assert_eq!(tw.window_of(Timestamp::from_hours(23)), 5);
        // Window boundaries are inclusive at start, exclusive at end.
        assert_eq!(tw.window_of(Timestamp::from_hours(4)), 1);
    }

    #[test]
    fn window_ranges_partition_day() {
        for wpd in [1u32, 2, 3, 4, 6, 8, 12, 24, 288] {
            let tw = TimeWindows::new(wpd);
            assert_eq!(tw.window_ticks() * tw.count() as u64, TICKS_PER_DAY);
            for w in tw.indices() {
                let s = Timestamp::from_ticks(3 * TICKS_PER_DAY + w as u64 * tw.window_ticks());
                assert_eq!(tw.window_of(s), w);
                assert_eq!(
                    tw.window_of(s + SimDuration::from_ticks(tw.window_ticks() - 1)),
                    w
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn invalid_window_count_panics() {
        let _ = TimeWindows::new(5); // 288 / 5 is not integral
    }

    #[test]
    fn ideal_windows() {
        assert_eq!(TimeWindows::ideal().count(), 288);
        assert_eq!(TimeWindows::ideal().window_ticks(), 1);
    }

    #[test]
    fn display_timestamp() {
        let t = Timestamp::from_hours(25) + SimDuration::from_ticks(1);
        assert_eq!(t.to_string(), "Tue d1 01:05");
    }
}
