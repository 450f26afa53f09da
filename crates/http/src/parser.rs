//! Incremental HTTP/1.1 request parsing over a growing byte buffer.
//!
//! The connection loop appends whatever it reads into one buffer and asks
//! [`try_parse`] after every read: `Ok(None)` means "keep reading",
//! `Ok(Some((request, consumed)))` yields one complete request plus the
//! byte count to drain (pipelined requests simply stay in the buffer for
//! the next call), and `Err` is a terminal protocol violation the caller
//! answers with a 4xx before closing. Limits are enforced *while* data
//! accumulates — an oversized head or declared body fails as soon as the
//! limit is crossed, not after the peer has streamed the whole thing.

/// Size limits the parser enforces incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the request head (request line + headers, bytes).
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length` (bytes).
    pub max_body_bytes: usize,
}

/// Terminal request-parsing failures, each mapping to one 4xx status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Syntactically invalid request line, header, or length field.
    Malformed(&'static str),
    /// The head outgrew [`Limits::max_head_bytes`] without terminating.
    HeadTooLarge,
    /// The declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge,
}

impl ParseError {
    /// The HTTP status this failure is answered with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Malformed(_) => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
        }
    }

    /// Human-readable reason for the error body.
    pub fn message(&self) -> String {
        match self {
            ParseError::Malformed(why) => format!("malformed request: {why}"),
            ParseError::HeadTooLarge => "request head exceeds the configured limit".to_owned(),
            ParseError::BodyTooLarge => "request body exceeds the configured limit".to_owned(),
        }
    }
}

/// One parsed request. Header names are lower-cased at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, starting with `/` (query strings are not split).
    pub path: String,
    /// `(lower-cased name, trimmed value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes; empty without the header).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// True when the client asked for the connection to close after this
    /// response (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Try to parse one complete request from the front of `buf`. See the
/// module docs for the three-way contract.
pub fn try_parse(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        // No terminator yet: fail fast once the accumulated head can no
        // longer fit the limit, otherwise wait for more bytes.
        if buf.len() > limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > limits.max_head_bytes {
        return Err(ParseError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(ParseError::Malformed("request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line without a colon"));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(ParseError::Malformed("header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length = content_length(&headers)?;
    if content_length > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }
    let body_start = head_end + 4;
    let Some(body) = buf.get(body_start..body_start + content_length) else {
        return Ok(None);
    };
    let request =
        Request { method: method.to_owned(), path: path.to_owned(), headers, body: body.to_vec() };
    Ok(Some((request, body_start + content_length)))
}

/// The body length the head declares. Only `Content-Length` framing is
/// spoken, so any `Transfer-Encoding`, a second `Content-Length` or a
/// length that is not all ASCII digits is refused: reading such a body by
/// a guess would leave its bytes to be parsed as the next request on the
/// connection.
fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(ParseError::Malformed("transfer-encoding is not supported"));
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length").map(|(_, v)| v);
    let Some(value) = lengths.next() else { return Ok(0) };
    if lengths.next().is_some() {
        return Err(ParseError::Malformed("more than one content-length"));
    }
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ParseError::Malformed("content-length"));
    }
    value.parse().map_err(|_| ParseError::Malformed("content-length"))
}

/// First index of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits { max_head_bytes: 256, max_body_bytes: 64 };

    #[test]
    fn parses_a_complete_request_and_reports_consumption() {
        let wire =
            b"POST /sparql HTTP/1.1\r\nContent-Length: 5\r\nX-Request-Id: r1\r\n\r\nhelloGET /next";
        let (req, consumed) = try_parse(wire, &LIMITS).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sparql");
        assert_eq!(req.header("x-request-id"), Some("r1"));
        assert_eq!(req.header("X-REQUEST-ID"), Some("r1"));
        assert_eq!(req.body, b"hello");
        assert_eq!(&wire[consumed..], b"GET /next", "pipelined tail stays in the buffer");
        assert!(!req.wants_close());
    }

    #[test]
    fn incomplete_head_and_body_ask_for_more() {
        assert!(try_parse(b"GET /metrics HTTP/1.1\r\n", &LIMITS).unwrap().is_none());
        let partial_body = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nonly4";
        assert!(try_parse(partial_body, &LIMITS).unwrap().is_none());
        assert!(try_parse(b"", &LIMITS).unwrap().is_none());
    }

    #[test]
    fn limits_fail_fast() {
        // Head limit trips before a terminator ever arrives.
        let mut endless = b"GET / HTTP/1.1\r\n".to_vec();
        endless.extend(std::iter::repeat_n(b'a', 300));
        assert_eq!(try_parse(&endless, &LIMITS), Err(ParseError::HeadTooLarge));
        // Declared body over the cap is rejected from the head alone.
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
        assert_eq!(try_parse(big, &LIMITS), Err(ParseError::BodyTooLarge));
        assert_eq!(ParseError::BodyTooLarge.status(), 413);
        assert_eq!(ParseError::HeadTooLarge.status(), 431);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for wire in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/0.9\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: soon\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
        ] {
            let err = try_parse(wire, &LIMITS).unwrap_err();
            assert_eq!(err.status(), 400, "{wire:?} -> {err:?}");
        }
    }

    #[test]
    fn chunked_requests_are_refused_not_read_as_bodiless() {
        let wire = b"POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                     5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(
            try_parse(wire, &LIMITS),
            Err(ParseError::Malformed("transfer-encoding is not supported"))
        );
        // Beside a Content-Length too: the two framings disagree.
        let both = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: gzip\r\n\r\nhello";
        assert_eq!(try_parse(both, &LIMITS).unwrap_err().status(), 400);
    }

    #[test]
    fn a_second_content_length_is_refused() {
        for wire in [
            &b"POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello"[..],
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello",
        ] {
            assert_eq!(
                try_parse(wire, &LIMITS),
                Err(ParseError::Malformed("more than one content-length")),
                "{wire:?}"
            );
        }
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+5", "-0", " 5x", "5 5", "0x5", ""] {
            let wire = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert_eq!(
                try_parse(wire.as_bytes(), &LIMITS),
                Err(ParseError::Malformed("content-length")),
                "{value:?}"
            );
        }
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 005\r\n\r\nhello";
        assert_eq!(try_parse(wire, &LIMITS).unwrap().unwrap().0.body, b"hello");
    }

    #[test]
    fn connection_close_is_honoured() {
        let wire = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let (req, _) = try_parse(wire, &LIMITS).unwrap().unwrap();
        assert!(req.wants_close());
    }
}
