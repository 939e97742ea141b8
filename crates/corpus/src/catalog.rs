//! The 50-series catalog (paper Table I) with per-category parameters.

use crate::trace::TaskKind;

/// Image category, as grouped in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Base operating-system images.
    LinuxDistro,
    /// Language runtimes/toolchains.
    Language,
    /// Database servers.
    Database,
    /// Web servers, proxies, and middleware.
    WebComponent,
    /// Full application platforms.
    ApplicationPlatform,
    /// Everything else in the top 50.
    Others,
}

impl Category {
    /// All six categories in paper order.
    pub const ALL: [Category; 6] = [
        Category::LinuxDistro,
        Category::Language,
        Category::Database,
        Category::WebComponent,
        Category::ApplicationPlatform,
        Category::Others,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Category::LinuxDistro => "Linux Distro",
            Category::Language => "Language",
            Category::Database => "Database",
            Category::WebComponent => "Web Component",
            Category::ApplicationPlatform => "Application Platform",
            Category::Others => "Others",
        }
    }

    /// Probability that a given *cold* application file changes content
    /// between consecutive versions.
    ///
    /// Calibration target: the per-category Gear storage savings of Fig. 7a —
    /// base images churn heavily ("most of the data in the images may be
    /// changed"), application images mostly re-ship unchanged runtimes.
    pub fn cold_churn(self) -> f64 {
        match self {
            Category::LinuxDistro => 0.75,
            Category::Language => 0.40,
            Category::Database => 0.30,
            Category::WebComponent => 0.22,
            Category::ApplicationPlatform => 0.25,
            Category::Others => 0.30,
        }
    }

    /// Churn for *hot* (startup-necessary) files. Calibration target: the
    /// per-category necessary-data redundancy of Fig. 2 (Database 56.0 %,
    /// Application Platform 57.4 %, average 39.9 %).
    pub fn hot_churn(self) -> f64 {
        match self {
            Category::LinuxDistro => 0.80,
            Category::Language => 0.85,
            Category::Database => 0.54,
            Category::WebComponent => 0.55,
            Category::ApplicationPlatform => 0.53,
            Category::Others => 0.80,
        }
    }

    /// Fraction of an image's files that are *hot*: read during startup and
    /// the deployment task. The paper cites remote-image studies reading
    /// 6.4 %–33 % of image data on deployment.
    pub fn hot_fraction(self) -> f64 {
        match self {
            Category::LinuxDistro => 0.22,
            Category::Language => 0.42,
            Category::Database => 0.36,
            Category::WebComponent => 0.33,
            Category::ApplicationPlatform => 0.40,
            Category::Others => 0.30,
        }
    }

    /// The deployment task run after launch (paper §V-D).
    pub fn task(self) -> TaskKind {
        match self {
            Category::LinuxDistro => TaskKind::Echo,
            Category::Language => TaskKind::CompileRun,
            Category::Database => TaskKind::DatabaseOps,
            Category::WebComponent => TaskKind::WebServe,
            Category::ApplicationPlatform => TaskKind::PlatformTask,
            Category::Others => TaskKind::Generic,
        }
    }}

/// Base-image family an application series is built `FROM`. Series in the
/// same family share base-layer content verbatim, which is what enables
/// cross-series deduplication in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseFamily {
    /// Debian/debian-slim lineage (most official images).
    Debian,
    /// Alpine lineage (musl-based slim images).
    Alpine,
    /// Ubuntu lineage.
    Ubuntu,
    /// CentOS lineage.
    Centos,
    /// Amazon Linux lineage.
    AmazonLinux,
    /// Busybox (static) lineage.
    Busybox,
}

impl BaseFamily {
    /// Full-scale size of the family's *slim* base file set, in MB — what
    /// application images actually build `FROM` (e.g. `debian:buster-slim`).
    pub fn base_size_mb(self) -> f64 {
        match self {
            BaseFamily::Debian => 27.0,
            BaseFamily::Alpine => 5.5,
            BaseFamily::Ubuntu => 30.0,
            BaseFamily::Centos => 70.0,
            BaseFamily::AmazonLinux => 60.0,
            BaseFamily::Busybox => 1.2,
        }
    }

    /// Stable per-family seed component.
    pub fn seed(self) -> u64 {
        match self {
            BaseFamily::Debian => 0xD_EB,
            BaseFamily::Alpine => 0xA1_91,
            BaseFamily::Ubuntu => 0x0B_07,
            BaseFamily::Centos => 0xCE_05,
            BaseFamily::AmazonLinux => 0xA3_02,
            BaseFamily::Busybox => 0xB0_BB,
        }
    }
}

/// One image series (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSpec {
    /// Series (repository) name.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// Base family the series builds on. For Linux distro series this is the
    /// family whose content the series *is*.
    pub family: BaseFamily,
    /// Approximate full-scale unpacked image size, in MB.
    pub full_size_mb: f64,
    /// Number of versions collected (20 except three shorter series).
    pub versions: usize,
}

const fn s(
    name: &'static str,
    category: Category,
    family: BaseFamily,
    full_size_mb: f64,
    versions: usize,
) -> SeriesSpec {
    SeriesSpec { name, category, family, full_size_mb, versions }
}

/// The top-50 official image series of the paper's Table I, with realistic
/// approximate sizes and version counts (947 + 3 + 11 + 17 = 971 images).
pub const CATALOG: [SeriesSpec; 50] = [
    // Linux Distro
    s("alpine", Category::LinuxDistro, BaseFamily::Alpine, 6.0, 20),
    s("amazonlinux", Category::LinuxDistro, BaseFamily::AmazonLinux, 160.0, 20),
    s("busybox", Category::LinuxDistro, BaseFamily::Busybox, 1.2, 20),
    s("centos", Category::LinuxDistro, BaseFamily::Centos, 200.0, 11),
    s("debian", Category::LinuxDistro, BaseFamily::Debian, 114.0, 20),
    s("ubuntu", Category::LinuxDistro, BaseFamily::Ubuntu, 73.0, 20),
    // Language
    s("golang", Category::Language, BaseFamily::Debian, 700.0, 20),
    s("java", Category::Language, BaseFamily::Debian, 500.0, 20),
    s("openjdk", Category::Language, BaseFamily::Debian, 470.0, 20),
    s("php", Category::Language, BaseFamily::Debian, 390.0, 20),
    s("python", Category::Language, BaseFamily::Debian, 340.0, 20),
    s("ruby", Category::Language, BaseFamily::Debian, 840.0, 20),
    // Database
    s("cassandra", Category::Database, BaseFamily::Debian, 340.0, 20),
    s("couchbase", Category::Database, BaseFamily::Ubuntu, 1000.0, 20),
    s("crate", Category::Database, BaseFamily::Centos, 740.0, 20),
    s("elasticsearch", Category::Database, BaseFamily::Centos, 770.0, 20),
    s("influxdb", Category::Database, BaseFamily::Debian, 300.0, 20),
    s("mariadb", Category::Database, BaseFamily::Ubuntu, 350.0, 20),
    s("memcached", Category::Database, BaseFamily::Debian, 80.0, 20),
    s("mongo", Category::Database, BaseFamily::Ubuntu, 450.0, 20),
    s("mysql", Category::Database, BaseFamily::Debian, 550.0, 20),
    s("postgres", Category::Database, BaseFamily::Debian, 310.0, 20),
    s("redis", Category::Database, BaseFamily::Debian, 100.0, 20),
    // Web Component
    s("consul", Category::WebComponent, BaseFamily::Alpine, 120.0, 20),
    s("eclipse-mosquitto", Category::WebComponent, BaseFamily::Alpine, 10.0, 17),
    s("haproxy", Category::WebComponent, BaseFamily::Debian, 90.0, 20),
    s("httpd", Category::WebComponent, BaseFamily::Debian, 160.0, 20),
    s("kibana", Category::WebComponent, BaseFamily::Centos, 1100.0, 20),
    s("kong", Category::WebComponent, BaseFamily::Alpine, 150.0, 20),
    s("nginx", Category::WebComponent, BaseFamily::Debian, 130.0, 20),
    s("node", Category::WebComponent, BaseFamily::Debian, 900.0, 20),
    s("telegraf", Category::WebComponent, BaseFamily::Debian, 250.0, 20),
    s("tomcat", Category::WebComponent, BaseFamily::Debian, 500.0, 20),
    s("traefik", Category::WebComponent, BaseFamily::Alpine, 100.0, 20),
    // Application Platform
    s("drupal", Category::ApplicationPlatform, BaseFamily::Debian, 450.0, 20),
    s("ghost", Category::ApplicationPlatform, BaseFamily::Debian, 450.0, 20),
    s("jenkins", Category::ApplicationPlatform, BaseFamily::Debian, 570.0, 20),
    s("nextcloud", Category::ApplicationPlatform, BaseFamily::Debian, 750.0, 20),
    s("rabbitmq", Category::ApplicationPlatform, BaseFamily::Ubuntu, 180.0, 20),
    s("solr", Category::ApplicationPlatform, BaseFamily::Debian, 530.0, 20),
    s("sonarqube", Category::ApplicationPlatform, BaseFamily::Alpine, 460.0, 20),
    s("wordpress", Category::ApplicationPlatform, BaseFamily::Debian, 540.0, 20),
    // Others
    s("chronograf", Category::Others, BaseFamily::Alpine, 160.0, 20),
    s("docker", Category::Others, BaseFamily::Alpine, 220.0, 20),
    s("gradle", Category::Others, BaseFamily::Debian, 600.0, 20),
    s("hello-world", Category::Others, BaseFamily::Busybox, 0.013, 3),
    s("logstash", Category::Others, BaseFamily::Centos, 770.0, 20),
    s("maven", Category::Others, BaseFamily::Debian, 500.0, 20),
    s("registry", Category::Others, BaseFamily::Alpine, 25.0, 20),
    s("vault", Category::Others, BaseFamily::Alpine, 200.0, 20),
];

impl SeriesSpec {
    /// Looks a series up by name.
    pub fn by_name(name: &str) -> Option<&'static SeriesSpec> {
        CATALOG.iter().find(|spec| spec.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_971_images() {
        let total: usize = CATALOG.iter().map(|spec| spec.versions).sum();
        assert_eq!(total, 971, "the paper's corpus has exactly 971 images");
    }

    #[test]
    fn catalog_has_50_series_across_6_categories() {
        assert_eq!(CATALOG.len(), 50);
        for cat in Category::ALL {
            assert!(
                CATALOG.iter().any(|spec| spec.category == cat),
                "category {cat:?} missing"
            );
        }
    }

    #[test]
    fn category_counts_match_table1() {
        let count = |c: Category| CATALOG.iter().filter(|spec| spec.category == c).count();
        assert_eq!(count(Category::LinuxDistro), 6);
        assert_eq!(count(Category::Language), 6);
        assert_eq!(count(Category::Database), 11);
        assert_eq!(count(Category::WebComponent), 11);
        assert_eq!(count(Category::ApplicationPlatform), 8);
        assert_eq!(count(Category::Others), 8);
    }

    #[test]
    fn unique_names() {
        let mut names: Vec<_> = CATALOG.iter().map(|spec| spec.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 50);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(SeriesSpec::by_name("tomcat").unwrap().category, Category::WebComponent);
        assert!(SeriesSpec::by_name("nonesuch").is_none());
    }

    #[test]
    fn churn_parameters_in_range() {
        for cat in Category::ALL {
            for p in [cat.cold_churn(), cat.hot_churn(), cat.hot_fraction()] {
                assert!(p > 0.0 && p < 1.0, "{cat:?}: {p}");
            }
        }
        // Base images churn more than app images (paper §V-C).
        assert!(Category::LinuxDistro.cold_churn() > Category::Database.cold_churn());
        // Database/Platform hot sets are the most stable (paper Fig. 2).
        assert!(Category::Database.hot_churn() < Category::Others.hot_churn());
        assert!(Category::ApplicationPlatform.hot_churn() < Category::WebComponent.hot_churn());
    }
}
