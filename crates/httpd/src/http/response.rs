//! HTTP responses.

use super::status::StatusCode;
use serde::{Deserialize, Serialize};

/// An HTTP response ready for serialization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpResponse {
    /// Status code.
    pub status: StatusCode,
    /// Headers in emission order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A response with the given status and a small explanatory text body.
    pub fn with_status(status: StatusCode) -> Self {
        HttpResponse {
            status,
            headers: vec![("content-type".into(), "text/plain".into())],
            body: format!("{status}\n").into_bytes(),
        }
    }

    /// A 200 response carrying `body` with the given content type.
    pub fn ok(body: impl Into<Vec<u8>>, content_type: &str) -> Self {
        HttpResponse {
            status: StatusCode::Ok,
            headers: vec![("content-type".into(), content_type.to_string())],
            body: body.into(),
        }
    }

    /// A 302 redirect to `location` (§6 2d adaptive redirection).
    pub fn redirect(location: &str) -> Self {
        HttpResponse {
            status: StatusCode::Found,
            headers: vec![
                ("location".into(), location.to_string()),
                ("content-type".into(), "text/plain".into()),
            ],
            body: format!("redirecting to {location}\n").into_bytes(),
        }
    }

    /// A 401 challenge for HTTP Basic authentication in `realm`.
    pub fn unauthorized(realm: &str) -> Self {
        HttpResponse {
            status: StatusCode::Unauthorized,
            headers: vec![
                (
                    "www-authenticate".into(),
                    format!("Basic realm=\"{realm}\""),
                ),
                ("content-type".into(), "text/plain".into()),
            ],
            body: b"authentication required\n".to_vec(),
        }
    }

    /// Adds a header, for chaining.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes to wire format (HTTP/1.1, `connection: close`).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_wire(false)
    }

    /// Serializes to wire format with an explicit connection disposition —
    /// the connection machine ([`crate::conn`]) decides per response.
    pub fn to_wire(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {}\r\n", self.status).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        if keep_alive {
            out.extend_from_slice(b"connection: keep-alive\r\n\r\n");
        } else {
            out.extend_from_slice(b"connection: close\r\n\r\n");
        }
        out.extend_from_slice(&self.body);
        out
    }

    /// The body as UTF-8 (lossy), for assertions and logging.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_response() {
        let r = HttpResponse::ok("<html></html>", "text/html");
        assert_eq!(r.status, StatusCode::Ok);
        assert_eq!(r.header("content-type"), Some("text/html"));
        assert_eq!(r.body_text(), "<html></html>");
    }

    #[test]
    fn redirect_carries_location() {
        let r = HttpResponse::redirect("http://replica1.example.org/x");
        assert_eq!(r.status, StatusCode::Found);
        assert_eq!(r.header("location"), Some("http://replica1.example.org/x"));
    }

    #[test]
    fn unauthorized_challenges_basic() {
        let r = HttpResponse::unauthorized("protected");
        assert_eq!(r.status, StatusCode::Unauthorized);
        assert_eq!(
            r.header("www-authenticate"),
            Some("Basic realm=\"protected\"")
        );
    }

    #[test]
    fn wire_format() {
        let bytes = HttpResponse::ok("hi", "text/plain").to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: text/plain\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn wire_format_keep_alive() {
        let bytes = HttpResponse::ok("hi", "text/plain").to_wire(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(!text.contains("connection: close"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn status_helper_bodies_mention_status() {
        let r = HttpResponse::with_status(StatusCode::Forbidden);
        assert!(r.body_text().contains("403"));
    }
}
