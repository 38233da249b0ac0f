//! Lossy radio link with bounded retransmission and bit accounting.
//!
//! The transmitter groups data words into fixed-size packets; each packet
//! is lost independently with `loss_prob` per attempt and retried up to
//! `max_retries` times. Every attempt costs transmission energy, so a lossy
//! link degrades *both* sides of the paper's trade-off at once: undelivered
//! packets erase signal (quality drops) while retransmissions inflate the
//! bit count (power rises).

use efficsense_rng::Rng64;

/// Packet-loss fault on the transmitter link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability that one transmission attempt of a packet is lost.
    pub loss_prob: f64,
    /// Retransmission attempts after the first (0 = no retries).
    pub max_retries: u32,
    /// Data words per packet.
    pub packet_words: usize,
}

impl LinkFault {
    /// `true` when the fault has no effect on the signal path.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.loss_prob <= 0.0
    }

    /// Expected transmission attempts per packet under the bounded-retry
    /// policy: `(1 − p^(R+1)) / (1 − p)` for loss probability `p` and `R`
    /// retries. Used by the analytic transmitter power model.
    #[must_use]
    pub fn expected_attempts(&self) -> f64 {
        let p = self.loss_prob.clamp(0.0, 1.0);
        let tries = self.max_retries as i32 + 1;
        if p >= 1.0 {
            // Every attempt fails; the budget is always exhausted.
            return tries as f64;
        }
        (1.0 - p.powi(tries)) / (1.0 - p)
    }

    /// Sends one packet of `len` data words (at most
    /// [`packet_words`](Self::packet_words); the caller cuts its words into
    /// packets): one attempt, then up to `max_retries` more while attempts
    /// are lost. Folds the packet's accounting into `stats` and returns
    /// whether it was delivered.
    ///
    /// Deterministic in `rng`: exactly one draw per transmission attempt.
    pub fn send(&self, len: usize, rng: &mut Rng64, stats: &mut LinkStats) -> bool {
        let p = self.loss_prob.clamp(0.0, 1.0);
        let mut attempts = 0u64;
        let mut ok = false;
        while attempts <= self.max_retries as u64 {
            attempts += 1;
            if !rng.chance(p) {
                ok = true;
                break;
            }
        }
        stats.data_words += len as u64;
        stats.packets += 1;
        stats.tx_words += attempts * len as u64;
        stats.lost_packets += u64::from(!ok);
        ok
    }
}

/// Accounting of one simulated link session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Data words the front-end produced.
    pub data_words: u64,
    /// Packets formed from those words.
    pub packets: u64,
    /// Packets undelivered after exhausting the retry budget.
    pub lost_packets: u64,
    /// Words actually clocked out of the radio (retransmissions included).
    pub tx_words: u64,
}

impl LinkStats {
    /// Measured attempts-per-data-word inflation (1.0 for an empty session).
    #[must_use]
    pub fn retry_factor(&self) -> f64 {
        if self.data_words == 0 {
            1.0
        } else {
            self.tx_words as f64 / self.data_words as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(p: f64, retries: u32) -> LinkFault {
        LinkFault {
            loss_prob: p,
            max_retries: retries,
            packet_words: 8,
        }
    }

    /// Sends `n_words` words packet by packet, as the stream does: one
    /// delivered flag per word, and the session's accounting.
    fn send_all(f: &LinkFault, n_words: usize, rng: &mut Rng64) -> (Vec<bool>, LinkStats) {
        let mut stats = LinkStats::default();
        let mut delivered = vec![true; n_words];
        for packet in delivered.chunks_mut(f.packet_words.max(1)) {
            let ok = f.send(packet.len(), rng, &mut stats);
            packet.fill(ok);
        }
        (delivered, stats)
    }

    #[test]
    fn lossless_link_delivers_everything_with_one_attempt_each() {
        let mut rng = Rng64::new(1);
        let (delivered, stats) = send_all(&fault(0.0, 3), 100, &mut rng);
        assert!(delivered.iter().all(|&d| d));
        assert_eq!(stats.lost_packets, 0);
        assert_eq!(stats.tx_words, 100);
        assert_eq!(stats.packets, 13); // ceil(100 / 8)
        assert!((stats.retry_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_loss_erases_everything_and_burns_the_retry_budget() {
        let mut rng = Rng64::new(2);
        let f = fault(1.0, 2);
        let (delivered, stats) = send_all(&f, 64, &mut rng);
        assert!(delivered.iter().all(|&d| !d));
        assert_eq!(stats.lost_packets, stats.packets);
        assert_eq!(stats.tx_words, 3 * 64); // 3 attempts per packet
        assert!((f.expected_attempts() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn expected_attempts_matches_measured_rate() {
        let f = fault(0.5, 3);
        let mut rng = Rng64::new(3);
        let (_, stats) = send_all(&f, 80_000, &mut rng);
        let measured = stats.tx_words as f64 / stats.data_words as f64;
        assert!(
            (measured / f.expected_attempts() - 1.0).abs() < 0.05,
            "measured {measured} vs expected {}",
            f.expected_attempts()
        );
    }

    #[test]
    fn loss_rate_matches_residual_probability() {
        // P(lost) = p^(R+1) = 0.5^3 = 0.125.
        let f = fault(0.5, 2);
        let mut rng = Rng64::new(4);
        let (_, stats) = send_all(&f, 80_000, &mut rng);
        let rate = stats.lost_packets as f64 / stats.packets as f64;
        assert!((rate - 0.125).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn deterministic_per_seed() {
        let f = fault(0.3, 1);
        let (d1, s1) = send_all(&f, 500, &mut Rng64::new(9));
        let (d2, s2) = send_all(&f, 500, &mut Rng64::new(9));
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn erasures_are_packet_granular() {
        let f = LinkFault {
            loss_prob: 0.6,
            max_retries: 0,
            packet_words: 10,
        };
        let mut rng = Rng64::new(11);
        let (delivered, _) = send_all(&f, 100, &mut rng);
        for pkt in delivered.chunks(10) {
            assert!(
                pkt.iter().all(|&d| d) || pkt.iter().all(|&d| !d),
                "whole packets live or die together"
            );
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut a = LinkStats {
            data_words: 10,
            packets: 2,
            lost_packets: 1,
            tx_words: 15,
        };
        // The same session again: one packet lost after a retry, one sent.
        let mut rng = Rng64::new(12);
        let (lost, sent) = (fault(1.0, 1), fault(0.0, 1));
        assert!(!lost.send(5, &mut rng, &mut a));
        assert!(sent.send(5, &mut rng, &mut a));
        assert_eq!(a.data_words, 20);
        assert_eq!(a.lost_packets, 2);
        assert_eq!(a.tx_words, 30);
        assert_eq!(a.packets, 4);
        assert!((a.retry_factor() - 1.5).abs() < 1e-12);
    }
}
